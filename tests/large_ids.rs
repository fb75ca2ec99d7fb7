//! Instruction ids name instructions; they do not size the scheduler's
//! work. A function whose one explicit `(I1048575)` pushes every id the
//! pipeline mints above 2^20 (`gis_ir::MAX_INST_ID`) must schedule
//! exactly like the same function without it, apart from how the ids
//! are spelled.

use gis_core::{compile, SchedConfig, SchedStats};
use gis_ir::{parse_function, Function, MAX_INST_ID};
use gis_machine::MachineDescription;

/// The printed schedule without its instruction-id column.
fn without_ids(f: &Function) -> String {
    f.to_string()
        .lines()
        .map(|line| match line.trim_start().strip_prefix("(I") {
            Some(rest) => rest.split_once(") ").map_or(rest, |(_, op)| op).to_owned(),
            None => line.to_owned(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn ids_minted_above_two_to_the_twenty_schedule_alike() {
    let machine = MachineDescription::rs6k();
    let f0 = gis_workloads::synth::many_loops_scaled(12, 2, 7)
        .program
        .function;
    let text = f0.to_string();
    let (_, last) = f0.insts().last().expect("nonempty");
    let spelled = format!("(I{:<4})", last.id.index());
    assert!(text.contains(&spelled), "{spelled}");
    let big_text = text.replacen(&spelled, &format!("(I{})", MAX_INST_ID - 1), 1);
    let configs = [
        SchedConfig::speculative(),
        SchedConfig {
            duplication: true,
            jobs: 2,
            ..SchedConfig::speculative()
        },
    ];
    for config in configs {
        let run = |text: &str| {
            let mut f = parse_function(text).expect("parses");
            let stats = compile(&mut f, &machine, &config).expect("compiles");
            let stats = SchedStats {
                pass_nanos: [0; 6],
                ..stats
            };
            (f, stats)
        };
        let (plain, plain_stats) = run(&text);
        let (big, big_stats) = run(&big_text);
        let above = big
            .insts()
            .filter(|(_, i)| i.id.index() > MAX_INST_ID as usize)
            .count();
        assert!(
            above >= 24,
            "each unrolled loop's copies sit above 2^20: {above}"
        );
        assert_eq!(without_ids(&plain), without_ids(&big), "{config:?}");
        assert_eq!(plain_stats, big_stats, "{config:?}");
        assert!(plain_stats.loops_unrolled > 0, "{plain_stats}");
        assert!(
            plain_stats.moved_useful + plain_stats.moved_speculative > 0,
            "{plain_stats}"
        );
    }
}
