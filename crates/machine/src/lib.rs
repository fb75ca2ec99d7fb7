//! Parametric superscalar machine descriptions (§2 of the paper).
//!
//! A machine is a collection of functional units of `m` kinds with
//! `n_1 ... n_m` units of each kind. Every [`OpClass`] is executed by one
//! unit kind in an integral number of cycles, and pipeline constraints are
//! modelled as integer *delays* attached to data dependence edges: if a
//! producer of class `P` feeds a consumer of class `C` and a delay rule
//! `(P, C, d)` applies, the consumer should start no earlier than
//! `finish(P) + d`. Starting earlier is *legal* (hardware interlocks stall
//! at run time, §2) — the delays exist so the scheduler and the timing
//! simulator agree on cost.
//!
//! The RS/6000 preset ([`MachineDescription::rs6k`]) encodes §2.1: one
//! fixed point, one floating point and one branch unit; a 1-cycle delayed
//! load, a 3-cycle fixed compare→branch delay, a 1-cycle floating point
//! result delay and a 5-cycle float compare→branch delay.
//!
//! # Example
//!
//! ```
//! use gis_machine::MachineDescription;
//! use gis_ir::OpClass;
//!
//! let m = MachineDescription::rs6k();
//! assert_eq!(m.exec_time(OpClass::Fx), 1);
//! assert_eq!(m.delay(OpClass::FxCompare, OpClass::Branch), 3);
//! assert_eq!(m.delay(OpClass::Fx, OpClass::Fx), 0);
//! ```

#![warn(missing_docs)]

use gis_ir::OpClass;
use std::fmt;

/// Identifies a functional unit kind within a [`MachineDescription`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitKind(u32);

impl UnitKind {
    /// The raw index (dense; suitable for per-kind arrays).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UnitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unit{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Unit {
    name: String,
    count: u32,
}

/// Matches producer/consumer classes in a delay rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassMatcher {
    /// Matches every class.
    Any,
    /// Matches exactly one class.
    One(OpClass),
    /// Matches any class in the list.
    AnyOf(Vec<OpClass>),
}

impl ClassMatcher {
    /// Whether `class` satisfies this matcher.
    pub fn matches(&self, class: OpClass) -> bool {
        match self {
            ClassMatcher::Any => true,
            ClassMatcher::One(c) => *c == class,
            ClassMatcher::AnyOf(cs) => cs.contains(&class),
        }
    }
}

#[derive(Debug, Clone)]
struct DelayRule {
    producer: ClassMatcher,
    consumer: ClassMatcher,
    cycles: u32,
}

#[derive(Debug, Clone, Copy)]
struct ClassInfo {
    unit: UnitKind,
    exec_time: u32,
}

/// The number of op classes, the side of the delay table.
const CLASSES: usize = OpClass::ALL.len();

/// A parametric description of a superscalar machine.
///
/// Build custom machines with [`MachineBuilder`]; the presets
/// ([`MachineDescription::rs6k`] and friends) cover the configurations the
/// paper discusses.
#[derive(Debug, Clone)]
pub struct MachineDescription {
    name: String,
    units: Vec<Unit>,
    classes: Vec<Option<ClassInfo>>,
    /// The delay between producer class `p` and consumer class `c` at
    /// `[p.index()][c.index()]`: [`MachineBuilder::finish`] folds the
    /// delay rules into it by maximum, so a lookup is one read.
    delays: [[u32; CLASSES]; CLASSES],
    dispatch_width: Option<u32>,
}

impl MachineDescription {
    /// The machine's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of unit kinds (`m` in the paper).
    pub fn num_unit_kinds(&self) -> usize {
        self.units.len()
    }

    /// All unit kinds.
    pub fn unit_kinds(&self) -> impl Iterator<Item = UnitKind> + use<> {
        (0..self.units.len() as u32).map(UnitKind)
    }

    /// Number of units of the given kind (`n_i`).
    pub fn unit_count(&self, kind: UnitKind) -> u32 {
        self.units[kind.index()].count
    }

    /// Display name of a unit kind.
    pub fn unit_name(&self, kind: UnitKind) -> &str {
        &self.units[kind.index()].name
    }

    /// The unit kind that executes `class`.
    ///
    /// # Panics
    ///
    /// Panics if the machine does not implement `class` (builders reject
    /// such machines up front, so this only fires on hand-rolled ones).
    pub fn unit_of(&self, class: OpClass) -> UnitKind {
        self.classes[class.index()]
            .unwrap_or_else(|| panic!("machine {:?} does not implement {class}", self.name))
            .unit
    }

    /// Execution time of `class` in cycles (`t >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if the machine does not implement `class`.
    pub fn exec_time(&self, class: OpClass) -> u32 {
        self.classes[class.index()]
            .unwrap_or_else(|| panic!("machine {:?} does not implement {class}", self.name))
            .exec_time
    }

    /// The pipeline delay `d >= 0` between a producer and a consumer class:
    /// the maximum over all matching delay rules, 0 if none match.
    pub fn delay(&self, producer: OpClass, consumer: OpClass) -> u32 {
        self.delays[producer.index()][consumer.index()]
    }

    /// Maximum instructions dispatched per cycle across all units;
    /// defaults to the total unit count.
    pub fn dispatch_width(&self) -> u32 {
        self.dispatch_width
            .unwrap_or_else(|| self.units.iter().map(|u| u.count).sum())
    }

    /// The IBM RISC System/6000 model of §2.1: single fixed point, floating
    /// point and branch units; 1-cycle delayed load; 3-cycle fixed
    /// compare→branch; 1-cycle float result; 5-cycle float compare→branch.
    pub fn rs6k() -> Self {
        Self::superscalar("rs6k", 1, 1, 1)
    }

    /// A generalization of the RS/6000 with `fx` fixed point units, `fp`
    /// floating point units and `br` branch units (the paper's "machines
    /// with a larger number of computational units").
    pub fn superscalar(name: impl Into<String>, fx: u32, fp: u32, br: u32) -> Self {
        let mut b = MachineBuilder::new(name);
        let fxu = b.unit("fixed", fx);
        let fpu = b.unit("float", fp);
        let bru = b.unit("branch", br);
        b.class(OpClass::Fx, fxu, 1);
        b.class(OpClass::FxMul, fxu, 5);
        b.class(OpClass::FxDiv, fxu, 19);
        b.class(OpClass::Load, fxu, 1);
        b.class(OpClass::Store, fxu, 1);
        b.class(OpClass::FxCompare, fxu, 1);
        b.class(OpClass::Fp, fpu, 1);
        b.class(OpClass::FpMul, fpu, 2);
        b.class(OpClass::FpDiv, fpu, 17);
        b.class(OpClass::FpCompare, fpu, 1);
        b.class(OpClass::Branch, bru, 1);
        b.class(OpClass::Call, fxu, 10);
        b.delay(ClassMatcher::One(OpClass::Load), ClassMatcher::Any, 1);
        b.delay(
            ClassMatcher::One(OpClass::FxCompare),
            ClassMatcher::One(OpClass::Branch),
            3,
        );
        b.delay(
            ClassMatcher::AnyOf(vec![OpClass::Fp, OpClass::FpMul, OpClass::FpDiv]),
            ClassMatcher::Any,
            1,
        );
        b.delay(
            ClassMatcher::One(OpClass::FpCompare),
            ClassMatcher::One(OpClass::Branch),
            5,
        );
        b.finish().expect("preset is complete")
    }

    /// An `n`-wide machine: `n` fixed point and `n` floating point units
    /// plus one branch unit, RS/6000 latencies. Used by the width-sweep
    /// experiment.
    pub fn wide(n: u32) -> Self {
        Self::superscalar(format!("wide{n}"), n, n, 1)
    }

    /// A single-issue pipelined RISC: one unit executes everything, with
    /// the delayed-load and compare→branch delays of the RS/6000. This is
    /// the machine for which classic basic-block-only schedulers were
    /// designed; useful as a contrast configuration.
    pub fn scalar_pipeline() -> Self {
        let mut b = MachineBuilder::new("scalar");
        let u = b.unit("pipe", 1);
        for c in OpClass::ALL {
            let t = match c {
                OpClass::FxMul => 5,
                OpClass::FxDiv => 19,
                OpClass::FpMul => 2,
                OpClass::FpDiv => 17,
                OpClass::Call => 10,
                _ => 1,
            };
            b.class(c, u, t);
        }
        b.delay(ClassMatcher::One(OpClass::Load), ClassMatcher::Any, 1);
        b.delay(
            ClassMatcher::One(OpClass::FxCompare),
            ClassMatcher::One(OpClass::Branch),
            3,
        );
        b.delay(
            ClassMatcher::One(OpClass::FpCompare),
            ClassMatcher::One(OpClass::Branch),
            5,
        );
        b.finish().expect("preset is complete")
    }

    /// A 2-issue superscalar: the RS/6000's unit mix (one fixed point,
    /// one floating point, one branch unit) with dispatch capped at two
    /// instructions per cycle — the narrow end of the width-sweep axis.
    /// Delay table pinned to §2.1 (shared with [`MachineDescription::rs6k`]).
    pub fn issue2() -> Self {
        let mut m = Self::superscalar("issue2", 1, 1, 1);
        m.dispatch_width = Some(2);
        m
    }

    /// A 4-issue superscalar: two fixed point units, two floating point
    /// units and one branch unit, dispatch capped at four per cycle.
    /// Latencies and delays are the pinned §2.1 table — only the unit
    /// counts and dispatch width grow, so width-sweep comparisons
    /// isolate machine parallelism.
    pub fn issue4() -> Self {
        let mut m = Self::superscalar("issue4", 2, 2, 1);
        m.dispatch_width = Some(4);
        m
    }

    /// An 8-issue superscalar: four fixed point units, four floating
    /// point units and two branch units, dispatch capped at eight per
    /// cycle. The "machines with a larger number of computational
    /// units" the paper could only speculate about; latencies stay the
    /// pinned §2.1 table.
    pub fn issue8() -> Self {
        let mut m = Self::superscalar("issue8", 4, 4, 2);
        m.dispatch_width = Some(8);
        m
    }

    /// A VLIW-flavoured wide machine: `slots` homogeneous slots, each
    /// able to execute *any* op class (like a VLIW's uniform issue
    /// slots), dispatch width equal to the slot count, and a fully
    /// exposed pipeline — the delayed load costs **2** cycles instead
    /// of the RS/6000's 1 (a deeper, software-visible memory pipe), on
    /// top of the §2.1 compare→branch and floating point delays. The
    /// scheduler, not hardware scoreboarding, is expected to cover the
    /// latencies, which is exactly the regime where global scheduling
    /// has the most slots to fill.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn vliw(slots: u32) -> Self {
        assert!(slots > 0, "a VLIW machine needs at least one slot");
        let mut b = MachineBuilder::new(format!("vliw{slots}"));
        let u = b.unit("slot", slots);
        for c in OpClass::ALL {
            let t = match c {
                OpClass::FxMul => 5,
                OpClass::FxDiv => 19,
                OpClass::FpMul => 2,
                OpClass::FpDiv => 17,
                OpClass::Call => 10,
                _ => 1,
            };
            b.class(c, u, t);
        }
        b.delay(ClassMatcher::One(OpClass::Load), ClassMatcher::Any, 2);
        b.delay(
            ClassMatcher::One(OpClass::FxCompare),
            ClassMatcher::One(OpClass::Branch),
            3,
        );
        b.delay(
            ClassMatcher::AnyOf(vec![OpClass::Fp, OpClass::FpMul, OpClass::FpDiv]),
            ClassMatcher::Any,
            1,
        );
        b.delay(
            ClassMatcher::One(OpClass::FpCompare),
            ClassMatcher::One(OpClass::Branch),
            5,
        );
        b.dispatch_width(slots);
        b.finish().expect("preset is complete")
    }

    /// Resolves a preset by name: `rs6k`, `scalar`, `issue2`, `issue4`,
    /// `issue8`, `wideN` (1 ≤ N ≤ 64) or `vliwN` (1 ≤ N ≤ 64). This is
    /// the single lookup behind `gisc --machine` and the serve
    /// protocol's machine field, so every surface accepts the same
    /// names.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "rs6k" => Some(Self::rs6k()),
            "scalar" => Some(Self::scalar_pipeline()),
            "issue2" => Some(Self::issue2()),
            "issue4" => Some(Self::issue4()),
            "issue8" => Some(Self::issue8()),
            _ => {
                let bounded = |s: &str| s.parse::<u32>().ok().filter(|n| (1..=64).contains(n));
                if let Some(n) = name.strip_prefix("wide").and_then(bounded) {
                    Some(Self::wide(n))
                } else {
                    name.strip_prefix("vliw").and_then(bounded).map(Self::vliw)
                }
            }
        }
    }
}

/// An error from [`MachineBuilder::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildMachineError {
    /// No unit kinds were declared.
    NoUnits,
    /// An [`OpClass`] has no unit assignment.
    UnassignedClass(OpClass),
    /// An execution time of zero was supplied (the paper requires `t >= 1`).
    ZeroExecTime(OpClass),
    /// A unit kind was declared with zero units.
    ZeroCount(String),
}

impl fmt::Display for BuildMachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildMachineError::NoUnits => write!(f, "machine declares no functional units"),
            BuildMachineError::UnassignedClass(c) => {
                write!(f, "op class {c} has no functional unit assignment")
            }
            BuildMachineError::ZeroExecTime(c) => {
                write!(f, "op class {c} has a zero execution time")
            }
            BuildMachineError::ZeroCount(u) => write!(f, "unit kind {u:?} has zero units"),
        }
    }
}

impl std::error::Error for BuildMachineError {}

/// Incrementally builds a [`MachineDescription`].
///
/// ```
/// use gis_machine::{MachineBuilder, ClassMatcher};
/// use gis_ir::OpClass;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = MachineBuilder::new("toy");
/// let u = b.unit("alu", 2);
/// for c in [OpClass::Fx, OpClass::Load, OpClass::Store, OpClass::FxCompare,
///           OpClass::FxMul, OpClass::FxDiv, OpClass::Fp, OpClass::FpMul,
///           OpClass::FpDiv, OpClass::FpCompare, OpClass::Branch, OpClass::Call] {
///     b.class(c, u, 1);
/// }
/// b.delay(ClassMatcher::One(OpClass::Load), ClassMatcher::Any, 2);
/// let m = b.finish()?;
/// assert_eq!(m.delay(OpClass::Load, OpClass::Fx), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    m: MachineDescription,
    /// The delay rules, folded into the machine's table by
    /// [`MachineBuilder::finish`].
    rules: Vec<DelayRule>,
}

impl MachineBuilder {
    /// Starts a machine description with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        MachineBuilder {
            m: MachineDescription {
                name: name.into(),
                units: Vec::new(),
                classes: vec![None; CLASSES],
                delays: [[0; CLASSES]; CLASSES],
                dispatch_width: None,
            },
            rules: Vec::new(),
        }
    }

    /// Declares a unit kind with `count` identical units.
    pub fn unit(&mut self, name: impl Into<String>, count: u32) -> UnitKind {
        let kind = UnitKind(self.m.units.len() as u32);
        self.m.units.push(Unit {
            name: name.into(),
            count,
        });
        kind
    }

    /// Assigns `class` to `unit` with the given execution time.
    pub fn class(&mut self, class: OpClass, unit: UnitKind, exec_time: u32) -> &mut Self {
        self.m.classes[class.index()] = Some(ClassInfo { unit, exec_time });
        self
    }

    /// Adds a delay rule; overlapping rules combine by maximum.
    pub fn delay(
        &mut self,
        producer: ClassMatcher,
        consumer: ClassMatcher,
        cycles: u32,
    ) -> &mut Self {
        self.rules.push(DelayRule {
            producer,
            consumer,
            cycles,
        });
        self
    }

    /// Caps total dispatch per cycle below the unit count sum.
    pub fn dispatch_width(&mut self, width: u32) -> &mut Self {
        self.m.dispatch_width = Some(width);
        self
    }

    /// Validates and returns the machine, its delay rules folded into
    /// one class-by-class table (the maximum over the matching rules, 0
    /// where none match).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildMachineError`] when a class is unassigned, an
    /// execution time is zero, a unit count is zero, or no units exist.
    pub fn finish(mut self) -> Result<MachineDescription, BuildMachineError> {
        if self.m.units.is_empty() {
            return Err(BuildMachineError::NoUnits);
        }
        for u in &self.m.units {
            if u.count == 0 {
                return Err(BuildMachineError::ZeroCount(u.name.clone()));
            }
        }
        for (i, info) in self.m.classes.iter().enumerate() {
            match info {
                None => return Err(BuildMachineError::UnassignedClass(OpClass::ALL[i])),
                Some(ci) if ci.exec_time == 0 => {
                    return Err(BuildMachineError::ZeroExecTime(OpClass::ALL[i]))
                }
                _ => {}
            }
        }
        for p in OpClass::ALL {
            for c in OpClass::ALL {
                self.m.delays[p.index()][c.index()] = self
                    .rules
                    .iter()
                    .filter(|r| r.producer.matches(p) && r.consumer.matches(c))
                    .map(|r| r.cycles)
                    .max()
                    .unwrap_or(0);
            }
        }
        Ok(self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rs6k_matches_section_2_1() {
        let m = MachineDescription::rs6k();
        assert_eq!(m.num_unit_kinds(), 3);
        for k in m.unit_kinds() {
            assert_eq!(m.unit_count(k), 1);
        }
        // The four delay kinds from §2.1.
        assert_eq!(m.delay(OpClass::Load, OpClass::Fx), 1);
        assert_eq!(m.delay(OpClass::FxCompare, OpClass::Branch), 3);
        assert_eq!(m.delay(OpClass::Fp, OpClass::Fp), 1);
        assert_eq!(m.delay(OpClass::FpCompare, OpClass::Branch), 5);
        // Compare feeding a non-branch carries no special delay.
        assert_eq!(m.delay(OpClass::FxCompare, OpClass::Fx), 0);
        // Fixed and branch units are distinct: they can run in parallel.
        assert_ne!(m.unit_of(OpClass::Fx), m.unit_of(OpClass::Branch));
        assert_eq!(m.unit_of(OpClass::Load), m.unit_of(OpClass::FxCompare));
        assert_eq!(m.dispatch_width(), 3);
    }

    #[test]
    fn wide_machines_scale_unit_counts() {
        let m = MachineDescription::wide(4);
        let fx = m.unit_of(OpClass::Fx);
        assert_eq!(m.unit_count(fx), 4);
        assert_eq!(m.dispatch_width(), 9);
    }

    #[test]
    fn delay_rules_combine_by_max() {
        let mut b = MachineBuilder::new("t");
        let u = b.unit("u", 1);
        for c in OpClass::ALL {
            b.class(c, u, 1);
        }
        b.delay(ClassMatcher::Any, ClassMatcher::Any, 1);
        b.delay(ClassMatcher::One(OpClass::Load), ClassMatcher::Any, 3);
        let m = b.finish().expect("complete");
        assert_eq!(m.delay(OpClass::Load, OpClass::Fx), 3);
        assert_eq!(m.delay(OpClass::Fx, OpClass::Fx), 1);
    }

    /// The maximum over the rules matching `(p, c)`, 0 if none do: the
    /// scan `delay` made before the rules were folded into a table.
    fn scanned(rules: &[(ClassMatcher, ClassMatcher, u32)], p: OpClass, c: OpClass) -> u32 {
        rules
            .iter()
            .filter(|(mp, mc, _)| mp.matches(p) && mc.matches(c))
            .map(|r| r.2)
            .max()
            .unwrap_or(0)
    }

    fn assert_table(m: &MachineDescription, rules: &[(ClassMatcher, ClassMatcher, u32)]) {
        for p in OpClass::ALL {
            for c in OpClass::ALL {
                assert_eq!(
                    m.delay(p, c),
                    scanned(rules, p, c),
                    "{}: {p}->{c}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn the_delay_table_is_the_max_over_matching_rules() {
        use ClassMatcher::{Any, AnyOf, One};
        use OpClass::*;
        // Overlapping matchers, a zero rule under a larger one, and a
        // later rule smaller than an earlier one.
        let rules = [
            (Any, Any, 1),
            (One(Load), Any, 3),
            (AnyOf(vec![Load, Fx]), One(Branch), 4),
            (Any, AnyOf(vec![Branch, Store]), 2),
            (One(Load), One(Store), 0),
            (One(FpMul), AnyOf(vec![Fp, FpMul, Branch]), 6),
            (AnyOf(vec![FpMul, FxMul]), One(Fp), 5),
        ];
        let mut b = MachineBuilder::new("overlap");
        let u = b.unit("u", 1);
        for c in OpClass::ALL {
            b.class(c, u, 1);
        }
        for (p, c, d) in &rules {
            b.delay(p.clone(), c.clone(), *d);
        }
        let m = b.finish().expect("complete");
        assert_table(&m, &rules);
        assert_eq!(m.delay(Load, Branch), 4);
        assert_eq!(m.delay(FpMul, Fp), 6);
        assert_eq!(m.delay(Store, Fx), 1);

        // Every preset, against the rules its constructor adds.
        let superscalar = |load: u32| {
            vec![
                (One(Load), Any, load),
                (One(FxCompare), One(Branch), 3),
                (AnyOf(vec![Fp, FpMul, FpDiv]), Any, 1),
                (One(FpCompare), One(Branch), 5),
            ]
        };
        let scalar = vec![
            (One(Load), Any, 1),
            (One(FxCompare), One(Branch), 3),
            (One(FpCompare), One(Branch), 5),
        ];
        for name in ["rs6k", "issue2", "issue4", "issue8", "wide1", "wide64"] {
            let m = MachineDescription::by_name(name).expect("preset");
            assert_table(&m, &superscalar(1));
        }
        for name in ["vliw1", "vliw8"] {
            let m = MachineDescription::by_name(name).expect("preset");
            assert_table(&m, &superscalar(2));
        }
        assert_table(&MachineDescription::scalar_pipeline(), &scalar);
    }

    #[test]
    fn builder_rejects_incomplete_machines() {
        let b = MachineBuilder::new("t");
        assert_eq!(b.finish().unwrap_err(), BuildMachineError::NoUnits);

        let mut b = MachineBuilder::new("t");
        b.unit("u", 1);
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildMachineError::UnassignedClass(_)
        ));

        let mut b = MachineBuilder::new("t");
        let u = b.unit("u", 0);
        for c in OpClass::ALL {
            b.class(c, u, 1);
        }
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildMachineError::ZeroCount(_)
        ));
    }

    #[test]
    fn explicit_dispatch_width_caps_total() {
        let mut b = MachineBuilder::new("t");
        let u = b.unit("u", 4);
        for c in OpClass::ALL {
            b.class(c, u, 1);
        }
        b.dispatch_width(2);
        let m = b.finish().expect("complete");
        assert_eq!(m.dispatch_width(), 2);
    }

    /// Every preset the matrix experiment sweeps, by name. Completeness
    /// (`finish` succeeded) is implied by construction — the builders
    /// reject unassigned classes — but we re-assert the class coverage
    /// here so a future edit to `OpClass::ALL` cannot silently leave a
    /// preset partial.
    fn matrix_presets() -> Vec<MachineDescription> {
        ["rs6k", "issue2", "issue4", "issue8", "vliw8", "scalar"]
            .iter()
            .map(|n| MachineDescription::by_name(n).expect("preset name resolves"))
            .collect()
    }

    #[test]
    fn every_preset_implements_every_class() {
        for m in matrix_presets() {
            for c in OpClass::ALL {
                assert!(m.exec_time(c) >= 1, "{}: {c} has t >= 1", m.name());
                let _ = m.unit_of(c); // would panic on an unassigned class
            }
            assert!(m.dispatch_width() >= 1);
        }
    }

    #[test]
    fn issue_width_presets_pin_their_dispatch_widths() {
        assert_eq!(MachineDescription::issue2().dispatch_width(), 2);
        assert_eq!(MachineDescription::issue4().dispatch_width(), 4);
        assert_eq!(MachineDescription::issue8().dispatch_width(), 8);
        assert_eq!(MachineDescription::vliw(8).dispatch_width(), 8);
        // Unit counts grow with the width axis.
        let fx_of = |m: &MachineDescription| m.unit_count(m.unit_of(OpClass::Fx));
        assert_eq!(fx_of(&MachineDescription::issue2()), 1);
        assert_eq!(fx_of(&MachineDescription::issue4()), 2);
        assert_eq!(fx_of(&MachineDescription::issue8()), 4);
        assert_eq!(
            MachineDescription::issue8()
                .unit_count(MachineDescription::issue8().unit_of(OpClass::Branch)),
            2
        );
    }

    #[test]
    fn issue_width_presets_share_the_pinned_rs6k_delay_table() {
        for m in [
            MachineDescription::issue2(),
            MachineDescription::issue4(),
            MachineDescription::issue8(),
        ] {
            // The four §2.1 delay kinds, unchanged: the width sweep
            // varies parallelism only.
            assert_eq!(m.delay(OpClass::Load, OpClass::Fx), 1, "{}", m.name());
            assert_eq!(m.delay(OpClass::FxCompare, OpClass::Branch), 3);
            assert_eq!(m.delay(OpClass::Fp, OpClass::Fp), 1);
            assert_eq!(m.delay(OpClass::FpCompare, OpClass::Branch), 5);
            assert_eq!(m.delay(OpClass::FxCompare, OpClass::Fx), 0);
            // Latencies too.
            assert_eq!(m.exec_time(OpClass::Fx), 1);
            assert_eq!(m.exec_time(OpClass::FxMul), 5);
            assert_eq!(m.exec_time(OpClass::Load), 1);
        }
    }

    #[test]
    fn vliw_is_homogeneous_with_an_exposed_memory_pipe() {
        let m = MachineDescription::vliw(8);
        assert_eq!(m.num_unit_kinds(), 1, "uniform slots");
        assert_eq!(m.unit_of(OpClass::Fx), m.unit_of(OpClass::Branch));
        assert_eq!(m.unit_of(OpClass::Fx), m.unit_of(OpClass::FpMul));
        assert_eq!(m.unit_count(m.unit_of(OpClass::Fx)), 8);
        // The deeper exposed load pipe: 2 cycles, not the RS/6000's 1.
        assert_eq!(m.delay(OpClass::Load, OpClass::Fx), 2);
        assert_eq!(m.delay(OpClass::FxCompare, OpClass::Branch), 3);
        assert_eq!(m.delay(OpClass::FpCompare, OpClass::Branch), 5);
    }

    #[test]
    fn by_name_resolves_every_surface_name() {
        assert_eq!(
            MachineDescription::by_name("rs6k").expect("rs6k").name(),
            "rs6k"
        );
        assert_eq!(
            MachineDescription::by_name("scalar")
                .expect("scalar")
                .name(),
            "scalar"
        );
        assert_eq!(
            MachineDescription::by_name("wide4").expect("wide4").name(),
            "wide4"
        );
        assert_eq!(
            MachineDescription::by_name("vliw8").expect("vliw8").name(),
            "vliw8"
        );
        for bad in ["", "wide", "wide0", "wide65", "vliw0", "issue3", "w4"] {
            assert!(
                MachineDescription::by_name(bad).is_none(),
                "{bad:?} must not resolve"
            );
        }
    }

    #[test]
    fn scalar_pipeline_single_unit() {
        let m = MachineDescription::scalar_pipeline();
        assert_eq!(m.num_unit_kinds(), 1);
        assert_eq!(m.unit_of(OpClass::Fx), m.unit_of(OpClass::Branch));
        assert_eq!(m.delay(OpClass::FxCompare, OpClass::Branch), 3);
    }
}
