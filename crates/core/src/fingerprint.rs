//! Content fingerprints of the scheduler's inputs.
//!
//! Scheduling is pure: the output is a function of the input IR, the
//! machine description and the configuration — nothing else. These
//! writers feed every *output-relevant* property of the machine and the
//! config into an FNV-64 hasher so callers can build content addresses:
//! `gis-serve` keys its whole-function schedule cache on them, and each
//! global pass hashes them once into the digest the in-process
//! [region memo](crate::region_memo_counters) chains into its per-region
//! keys. They lived in `gis-serve` until the region memo
//! needed them below the service layer; the byte streams are unchanged,
//! so every pinned cache key from before the move still holds.
//!
//! The stability contract (docs/SERVICE.md): options added after the
//! `v1` tags are hashed only when *enabled*, appended at the end, so a
//! request that does not use them fingerprints exactly as it did before
//! the option existed and deployed caches stay warm across upgrades.

use crate::config::{SchedConfig, SchedLevel, MAX_REGION_HEIGHT, SMALL_LOOP_BLOCKS};
use gis_ir::hash::Fnv64;
use gis_ir::OpClass;
use gis_machine::MachineDescription;

/// Feeds every schedule-relevant property of the machine description into
/// the hasher: name, dispatch width, unit counts, and per class (in
/// [`OpClass::ALL`] order) the unit assignment, execution time and the
/// full producer→consumer delay matrix.
/// Two presets that schedule identically but are *named* differently
/// still fingerprint apart — names are part of the operator contract.
pub fn write_machine_fingerprint(h: &mut Fnv64, machine: &MachineDescription) {
    h.write(b"machine/v1\0");
    h.write(machine.name().as_bytes());
    h.write_u8(0);
    h.write_u32(machine.dispatch_width());
    for kind in machine.unit_kinds() {
        h.write_u32(kind.index() as u32);
        h.write_u32(machine.unit_count(kind));
        h.write(machine.unit_name(kind).as_bytes());
        h.write_u8(0);
    }
    for class in OpClass::ALL {
        h.write_u32(machine.unit_of(class).index() as u32);
        h.write_u32(machine.exec_time(class));
    }
    for producer in OpClass::ALL {
        for consumer in OpClass::ALL {
            h.write_u32(machine.delay(producer, consumer));
        }
    }
}

/// Feeds every output-relevant scheduling option into the hasher.
///
/// `jobs` and `region_memo` are deliberately **excluded**: both are
/// guaranteed (and differentially tested) to produce bit-identical
/// schedules, so including them would only split caches for no
/// correctness gain. Test hooks ([`TestHooks`](crate::TestHooks)) are not
/// part of the configuration at all. A branch profile, if
/// present, is hashed entry by entry (probed over the function's
/// instruction-id range — profiles key on [`gis_ir::InstId`], so their
/// content is per-function anyway). The §6 constants that were options
/// when `config/v1` was fixed (one unroll round, four-block small loops,
/// region height one) are hashed in their old positions, so v1 keys
/// stay byte-identical.
pub fn write_config_fingerprint(h: &mut Fnv64, config: &SchedConfig, inst_bound: usize) {
    h.write(b"config/v1\0");
    h.write_u8(match config.level {
        SchedLevel::BasicBlockOnly => 0,
        SchedLevel::Useful => 1,
        SchedLevel::Speculative => 2,
    });
    h.write_u8(u8::from(config.rename));
    h.write_u8(u8::from(config.unroll));
    h.write_u64(1);
    h.write_u8(u8::from(config.rotate));
    h.write_u64(SMALL_LOOP_BLOCKS as u64);
    h.write_u64(config.max_region_blocks as u64);
    h.write_u64(config.max_region_insts as u64);
    h.write_u64(MAX_REGION_HEIGHT as u64);
    h.write_u8(u8::from(config.speculative_loads));
    h.write_u8(u8::from(config.speculative_renaming));
    h.write_u8(u8::from(config.final_bb_pass));
    h.write_u64(config.min_speculation_probability.to_bits());
    h.write_u64(config.max_speculation_branches as u64);
    match &config.profile {
        None => h.write_u8(0),
        Some(profile) => {
            h.write_u8(1);
            for id in 0..inst_bound as u32 {
                if let Some(p) = profile.taken_probability(gis_ir::InstId::new(id)) {
                    h.write_u32(id);
                    h.write_u64(p.to_bits());
                }
            }
        }
    }
    // Options added after v1 are hashed only when *enabled*, appended at
    // the end: a request that does not use them fingerprints exactly as
    // it did before the option existed, so deployed caches stay warm
    // across upgrades (the stability contract in docs/SERVICE.md).
    if config.duplication {
        h.write(b"dup/v1\0");
    }
}
