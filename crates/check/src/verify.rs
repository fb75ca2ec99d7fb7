//! Structural verification beyond [`Function::verify`].
//!
//! [`verify_function`] layers two checks on top of the IR-level verifier
//! (which already covers CFG well-formedness — branch placement, target
//! ranges, duplicate ids — and register-class consistency):
//!
//! 1. **use-before-def along dominators** — every use of a register that
//!    has at least one definition in the function must be *must-defined*
//!    at the point of use: on every path from the entry to the use there
//!    is a definition before it. Registers with no definition anywhere
//!    are treated as implicit function parameters (the paper's listings
//!    pass `n` in `r27` this way).
//! 2. **§4.1 region confinement** ([`verify_region_confinement`]) — a
//!    *relative* check between two snapshots of a function: instructions
//!    never move out of or into a region.
//!
//! [`check_pass`] packages both as a
//! [`PassVerifier`](gis_core::PassVerifier) suitable for
//! [`TestHooks::verifier`](gis_core::TestHooks).

use gis_cfg::{Cfg, DomTree, LoopForest, NodeId, RegionTree};
use gis_ir::{BlockId, Function, InstId, Reg};
use gis_trace::Pass;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A diagnostic from [`verify_function`] or
/// [`verify_region_confinement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The IR-level verifier ([`Function::verify`]) rejected the function.
    Malformed(String),
    /// A register with definitions elsewhere is used at a point not
    /// dominated by any definition.
    UseBeforeDef {
        /// Label of the block containing the use.
        block: String,
        /// The using instruction.
        inst: InstId,
        /// The register read before being defined.
        reg: Reg,
    },
    /// An instruction crossed a region boundary between two snapshots.
    RegionEscape {
        /// The instruction that moved.
        inst: InstId,
        /// Label of its block in the earlier snapshot.
        from: String,
        /// Label of its block in the later snapshot.
        to: String,
    },
    /// The set of instructions changed when it should have been preserved
    /// (an instruction appeared, disappeared, or the block structure
    /// changed under a pass that must not alter it).
    InstSetChanged {
        /// What changed.
        detail: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Malformed(e) => write!(f, "malformed function: {e}"),
            CheckError::UseBeforeDef { block, inst, reg } => write!(
                f,
                "use of {reg} at {inst} in block {block} is not dominated by any \
                 definition ({reg} is defined elsewhere in the function — was a \
                 definition moved below this use?)"
            ),
            CheckError::RegionEscape { inst, from, to } => write!(
                f,
                "instruction {inst} moved from block {from} to block {to}, \
                 crossing a region boundary (§4.1: scheduling is confined to \
                 one region at a time)"
            ),
            CheckError::InstSetChanged { detail } => {
                write!(f, "instruction set changed: {detail}")
            }
        }
    }
}

/// Joins a non-empty error list into one diagnostic string.
fn render(errs: &[CheckError]) -> String {
    errs.iter()
        .map(CheckError::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

/// Verifies `f` structurally: [`Function::verify`] (CFG well-formedness,
/// register-class consistency) plus use-before-def along dominators.
///
/// # Errors
///
/// Returns every diagnostic found, most fundamental first: if the
/// IR-level verifier fails its error is returned alone (the dataflow
/// checks assume a well-formed CFG).
pub fn verify_function(f: &Function) -> Result<(), Vec<CheckError>> {
    if let Err(e) = f.verify() {
        return Err(vec![CheckError::Malformed(e.to_string())]);
    }
    let errs = use_before_def(f);
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// The use-before-def diagnostics of `f` (assumes [`Function::verify`]
/// holds). Exposed separately so [`check_pass`] can compare snapshots and
/// report only *newly introduced* violations: source programs may
/// legitimately read conditionally-assigned registers, and the pipeline
/// must not be blamed for them.
fn use_before_def(f: &Function) -> Vec<CheckError> {
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);

    let mut has_def: HashSet<Reg> = HashSet::new();
    for (_, inst) in f.insts() {
        has_def.extend(inst.op.defs());
    }

    // Forward must-def dataflow: IN[b] = ∩ OUT[p] over reachable preds,
    // IN[entry] = ∅. `None` is ⊤ (not yet computed), so intersection with
    // it is the identity; unreachable blocks stay at ⊤ and are skipped.
    let n = f.num_blocks();
    let mut in_sets: Vec<Option<HashSet<Reg>>> = vec![None; n];
    in_sets[f.entry().index()] = Some(HashSet::new());
    let out_of = |f: &Function, b: BlockId, mut set: HashSet<Reg>| -> HashSet<Reg> {
        for inst in f.block(b).insts() {
            set.extend(inst.op.defs());
        }
        set
    };
    let mut changed = true;
    while changed {
        changed = false;
        for b in f.block_ids() {
            if !dom.is_reachable(NodeId::block(b)) || b == f.entry() {
                continue;
            }
            let mut meet: Option<HashSet<Reg>> = None;
            for p in cfg.block_preds(b) {
                let Some(in_p) = &in_sets[p.index()] else {
                    continue; // ⊤ predecessor: identity for ∩
                };
                let out_p = out_of(f, p, in_p.clone());
                meet = Some(match meet {
                    None => out_p,
                    Some(m) => m.intersection(&out_p).copied().collect(),
                });
            }
            if let Some(new_in) = meet {
                if in_sets[b.index()].as_ref() != Some(&new_in) {
                    in_sets[b.index()] = Some(new_in);
                    changed = true;
                }
            }
        }
    }

    let mut errs = Vec::new();
    for b in f.block_ids() {
        let Some(in_b) = &in_sets[b.index()] else {
            continue; // unreachable
        };
        let mut defined = in_b.clone();
        for inst in f.block(b).insts() {
            for u in inst.op.uses() {
                if has_def.contains(&u) && !defined.contains(&u) {
                    errs.push(CheckError::UseBeforeDef {
                        block: f.block(b).label().to_owned(),
                        inst: inst.id,
                        reg: u,
                    });
                }
            }
            defined.extend(inst.op.defs());
        }
    }
    errs
}

/// Maps every instruction id to its containing block.
fn locations(f: &Function) -> HashMap<InstId, BlockId> {
    f.insts().map(|(b, inst)| (inst.id, b)).collect()
}

/// Checks §4.1 region confinement between two snapshots of the same
/// function around a *global scheduling* pass: the block structure is
/// unchanged, the instruction sets are identical, and any instruction
/// whose block changed stayed within its innermost region (computed on
/// the `before` snapshot — global passes do not alter the region tree).
///
/// Duplication-based motion is the one transformation allowed to change
/// the instruction *set*, and it must leave provenance behind:
///
/// * an **appeared** instruction is accepted only if it is a recorded
///   duplication copy ([`Function::dup_origin`]) of an instruction that
///   existed in `before`, carries the same op, and sits in the origin's
///   innermost region — anything else (notably a genuine duplicate-id
///   bug minting unrecorded instructions) is still an error;
/// * a **disappeared** instruction is accepted only if a same-rooted
///   sibling with the same op survives in its region (the dedup fold
///   deletes a redundant copy precisely because its twin subsumes it).
///
/// # Errors
///
/// One [`CheckError`] per escaped or lost/added instruction.
pub fn verify_region_confinement(
    before: &Function,
    after: &Function,
) -> Result<(), Vec<CheckError>> {
    let mut errs = Vec::new();
    if before.num_blocks() != after.num_blocks() {
        return Err(vec![CheckError::InstSetChanged {
            detail: format!(
                "a global pass changed the block count: {} before, {} after",
                before.num_blocks(),
                after.num_blocks()
            ),
        }]);
    }
    let cfg = Cfg::new(before);
    let dom = DomTree::dominators(&cfg);
    let loops = LoopForest::new(&cfg, &dom);
    let tree = RegionTree::new(&cfg, &loops);
    let old = locations(before);
    let new = locations(after);
    let op_of = |f: &Function, b: BlockId, id: InstId| {
        let blk = f.block(b);
        let pos = blk
            .position(id)
            .expect("located instruction is in its block");
        blk.inst_at(pos).op.clone()
    };
    for (id, b0) in &old {
        match new.get(id) {
            None => {
                // The dedup fold may delete a redundant duplication
                // sibling: same root, same op, still in the region.
                let root = before.dup_root(*id);
                let subsumed = new.iter().any(|(x, bx)| {
                    x != id
                        && after.dup_root(*x) == root
                        && tree.innermost(*bx) == tree.innermost(*b0)
                        && op_of(after, *bx, *x) == op_of(before, *b0, *id)
                });
                if !subsumed {
                    errs.push(CheckError::InstSetChanged {
                        detail: format!(
                            "instruction {id} disappeared during a global pass \
                             with no surviving duplication sibling"
                        ),
                    });
                }
            }
            Some(b1) if b0 != b1 && tree.innermost(*b0) != tree.innermost(*b1) => {
                errs.push(CheckError::RegionEscape {
                    inst: *id,
                    from: before.block(*b0).label().to_owned(),
                    to: after.block(*b1).label().to_owned(),
                });
            }
            Some(_) => {}
        }
    }
    for (id, b1) in &new {
        if old.contains_key(id) {
            continue;
        }
        // Duplication mints fresh-id copies; each must declare an origin
        // that existed before the pass, carry its op unchanged, and stay
        // in its region.
        let legitimate_copy = after.dup_origin(*id).is_some_and(|origin| {
            old.get(&origin).is_some_and(|b_origin| {
                tree.innermost(*b1) == tree.innermost(*b_origin)
                    && op_of(after, *b1, *id) == op_of(before, *b_origin, origin)
            })
        });
        if !legitimate_copy {
            errs.push(CheckError::InstSetChanged {
                detail: format!(
                    "instruction {id} appeared during a global pass without \
                     duplication provenance"
                ),
            });
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        errs.sort_by_key(|e| e.to_string());
        Err(errs)
    }
}

/// A [`PassVerifier`](gis_core::PassVerifier) for
/// [`TestHooks::verifier`](gis_core::TestHooks): after every pipeline
/// pass, re-runs the IR-level verifier, rejects *newly introduced*
/// use-before-def violations, and — for the two global passes — enforces
/// §4.1 region confinement. The final basic-block pass must additionally leave every
/// block's instruction *set* untouched (it only reorders within blocks).
///
/// # Errors
///
/// All diagnostics, joined into one string for
/// [`CompileError::PassCheck`](gis_core::CompileError).
pub fn check_pass(pass: Pass, before: &Function, after: &Function) -> Result<(), String> {
    if let Err(e) = after.verify() {
        return Err(format!("malformed function: {e}"));
    }
    let pre: HashSet<(InstId, Reg)> = use_before_def(before)
        .into_iter()
        .filter_map(|e| match e {
            CheckError::UseBeforeDef { inst, reg, .. } => Some((inst, reg)),
            _ => None,
        })
        .collect();
    let fresh: Vec<CheckError> = use_before_def(after)
        .into_iter()
        .filter(|e| match e {
            CheckError::UseBeforeDef { inst, reg, .. } => !pre.contains(&(*inst, *reg)),
            _ => true,
        })
        .collect();
    if !fresh.is_empty() {
        return Err(render(&fresh));
    }
    match pass {
        Pass::Global1 | Pass::Global2 => {
            verify_region_confinement(before, after).map_err(|e| render(&e))?;
        }
        Pass::FinalBb => {
            if before.num_blocks() != after.num_blocks() {
                return Err(format!(
                    "the basic-block pass changed the block count: {} before, {} after",
                    before.num_blocks(),
                    after.num_blocks()
                ));
            }
            for b in before.block_ids() {
                let ids = |f: &Function| -> HashSet<InstId> {
                    f.block(b).insts().map(|i| i.id).collect()
                };
                if ids(before) != ids(after) {
                    return Err(format!(
                        "the basic-block pass changed the instruction set of block {}",
                        before.block(b).label()
                    ));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, CondBit, Inst, Op};

    #[test]
    fn accepts_well_formed_functions() {
        let f = parse_function(
            "func ok\ninit:\n LI r1=0\n LI r9=5\n\
             l:\n AI r1=r1,1\n C cr0=r1,r9\n BT l,cr0,0x1/lt\n\
             out:\n PRINT r1\n RET\n",
        )
        .expect("parses");
        verify_function(&f).expect("verifies");
    }

    #[test]
    fn implicit_parameters_are_allowed() {
        // r9 has no definition anywhere: an implicit parameter, like the
        // paper passing `n` in r27.
        let f = parse_function("func p\ne:\n AI r1=r9,1\n PRINT r1\n RET\n").expect("parses");
        verify_function(&f).expect("verifies");
    }

    #[test]
    fn rejects_use_before_def() {
        // r2 is defined *after* its use.
        let f =
            parse_function("func u\ne:\n A r1=r2,r2\n LI r2=5\n PRINT r1\n RET\n").expect("parses");
        let errs = verify_function(&f).expect_err("rejected");
        assert!(
            matches!(
                &errs[0],
                CheckError::UseBeforeDef { reg, .. } if reg.to_string() == "r2"
            ),
            "{errs:?}"
        );
        let msg = errs[0].to_string();
        assert!(msg.contains("r2") && msg.contains("dominated"), "{msg}");
    }

    #[test]
    fn rejects_partial_definition_across_a_diamond() {
        // r5 is defined on the taken arm only, then used at the join.
        let f = parse_function(
            "func d\ne:\n LI r1=1\n C cr0=r1,r1\n BT j,cr0,0x1/eq\n\
             arm:\n LI r5=7\n\
             j:\n PRINT r5\n RET\n",
        )
        .expect("parses");
        let errs = verify_function(&f).expect_err("rejected");
        assert!(
            errs.iter().any(|e| matches!(
                e,
                CheckError::UseBeforeDef { reg, block, .. }
                    if reg.to_string() == "r5" && block == "j"
            )),
            "{errs:?}"
        );
    }

    #[test]
    fn accepts_definitions_on_both_arms() {
        let f = parse_function(
            "func d2\ne:\n LI r1=1\n C cr0=r1,r1\n BT a2,cr0,0x1/eq\n\
             a1:\n LI r5=7\n B j\n\
             a2:\n LI r5=9\n\
             j:\n PRINT r5\n RET\n",
        )
        .expect("parses");
        verify_function(&f).expect("both arms define r5");
    }

    #[test]
    fn rejects_bad_cfg_edge() {
        // Built by hand: the parser would refuse an unknown label, but a
        // buggy pass can produce a dangling BlockId.
        let mut f = Function::new("bad");
        let e = f.add_block("e");
        let id = f.fresh_inst_id();
        f.block_mut(e).push(Inst::new(
            id,
            Op::BranchCond {
                target: BlockId::new(7),
                cr: Reg::cr(0),
                bit: CondBit::Lt,
                when: true,
            },
        ));
        let errs = verify_function(&f).expect_err("rejected");
        assert!(
            matches!(&errs[0], CheckError::Malformed(m) if m.contains("target")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_register_class_mismatch() {
        // A fixed-point compare writing a GPR instead of a CR field.
        let mut f = Function::new("cls");
        let e = f.add_block("e");
        let id = f.fresh_inst_id();
        f.block_mut(e).push(Inst::new(
            id,
            Op::Compare {
                crt: Reg::gpr(0),
                ra: Reg::gpr(1),
                rb: Reg::gpr(2),
            },
        ));
        let id = f.fresh_inst_id();
        f.block_mut(e).push(Inst::new(id, Op::Ret));
        let errs = verify_function(&f).expect_err("rejected");
        assert!(
            matches!(&errs[0], CheckError::Malformed(m) if m.to_lowercase().contains("class")
                || m.contains("cr")),
            "{errs:?}"
        );
    }

    #[test]
    fn region_confinement_flags_cross_region_motion() {
        let text = "func r\ninit:\n LI r1=0\n LI r2=0\n LI r9=3\n\
             l:\n AI r1=r1,1\n C cr0=r1,r9\n BT l,cr0,0x1/lt\n\
             out:\n AI r2=r2,7\n PRINT r2\n RET\n";
        let before = parse_function(text).expect("parses");
        // Legal: identical snapshots.
        verify_region_confinement(&before, &before).expect("identity is confined");
        // Illegal: move `AI r2=r2,7` from `out` into the loop body.
        let mut after = before.clone();
        let (bid, pos) = after
            .insts()
            .find(|(_, i)| matches!(&i.op, Op::FxImm { imm: 7, .. }))
            .map(|(b, i)| (b, after.block(b).position(i.id).unwrap()))
            .expect("found");
        let inst = after.block_mut(bid).remove_at(pos);
        after.block_mut(BlockId::new(1)).insert(0, inst);
        let errs = verify_region_confinement(&before, &after).expect_err("escape");
        assert!(
            errs.iter()
                .any(|e| matches!(e, CheckError::RegionEscape { .. })),
            "{errs:?}"
        );
        assert!(errs[0].to_string().contains("region"), "{errs:?}");
    }

    /// A diamond as duplication leaves it: the original join instruction
    /// relocated into the last arm, a fresh-id copy in the other.
    const DUP_TEXT: &str = "func d\n\
         e:\n LI r1=1\n C cr0=r1,r1\n BT a2,cr0,0x1/eq\n\
         a1:\n LI r4=7\n B j\n\
         a2:\n LI r4=9\n\
         j:\n AI r5=r4,1\n PRINT r5\n RET\n";

    fn duplicate_join_head(before: &Function) -> (Function, InstId) {
        let mut after = before.clone();
        let j = BlockId::new(3);
        let moved = after.block_mut(j).remove_at(0);
        let a2 = BlockId::new(2);
        let pos = after.block(a2).len();
        after.block_mut(a2).insert(pos, moved.clone());
        let copy = after.fresh_inst_id();
        after.record_dup_origin(copy, moved.id);
        let a1 = BlockId::new(1);
        after
            .block_mut(a1)
            .insert(1, Inst::new(copy, moved.op.clone()));
        (after, copy)
    }

    #[test]
    fn confinement_accepts_recorded_duplication_copies() {
        let before = parse_function(DUP_TEXT).expect("parses");
        let (after, _) = duplicate_join_head(&before);
        verify_region_confinement(&before, &after).expect("sibling copies share an origin");
    }

    #[test]
    fn confinement_rejects_unrecorded_appearances() {
        let before = parse_function(DUP_TEXT).expect("parses");
        let (mut after, copy) = duplicate_join_head(&before);
        // Re-minting the same shape *without* provenance is a duplicate-id
        // style bug, not a duplication.
        let rogue = after.fresh_inst_id();
        let op = {
            let blk = after.block(BlockId::new(1));
            let pos = blk.position(copy).unwrap();
            blk.inst_at(pos).op.clone()
        };
        after
            .block_mut(BlockId::new(0))
            .insert(0, Inst::new(rogue, op));
        let errs = verify_region_confinement(&before, &after).expect_err("rejected");
        assert!(
            errs.iter().any(|e| {
                matches!(e, CheckError::InstSetChanged { detail }
                    if detail.contains("without") && detail.contains(&rogue.to_string()))
            }),
            "{errs:?}"
        );
    }

    #[test]
    fn confinement_accepts_the_dedup_fold() {
        let before = parse_function(DUP_TEXT).expect("parses");
        let (after, copy) = duplicate_join_head(&before);
        // One more pass folds the copy back into its twin: starting from
        // the duplicated snapshot, the copy disappears.
        let mut folded = after.clone();
        folded
            .block_mut(BlockId::new(1))
            .remove(copy)
            .expect("copy present");
        verify_region_confinement(&after, &folded).expect("twin subsumes the folded copy");
        // But losing an instruction with no surviving sibling is still an
        // error.
        let mut lost = after.clone();
        let victim = lost.block(BlockId::new(3)).inst_at(0).id;
        lost.block_mut(BlockId::new(3)).remove_at(0);
        let errs = verify_region_confinement(&after, &lost).expect_err("rejected");
        assert!(
            errs.iter().any(|e| {
                matches!(e, CheckError::InstSetChanged { detail }
                    if detail.contains("no surviving") && detail.contains(&victim.to_string()))
            }),
            "{errs:?}"
        );
    }
}
