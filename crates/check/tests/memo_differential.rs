//! Warm-vs-cold differential for the region schedule memo, over the
//! same seeded random functions the fuzzer draws: compiling with the
//! memo disabled, with the memo enabled against a cold cache, and again
//! against the cache the cold run just warmed must all produce
//! bit-identical schedules. The warm compile is the interesting column —
//! it exercises the apply path (memoized region outcomes replayed
//! instead of re-scheduled), and under the test profile every hit is
//! re-verified against a from-scratch re-schedule of the region. The
//! duplication column repeats the three compiles with the `--dup` gate
//! on, whose outcomes mint instruction ids and fold copies away.

use gis_check::generate;
use gis_core::{compile, region_memo_counters, SchedConfig};
use gis_machine::MachineDescription;
use gis_workloads::rng::XorShift64Star;

const CASES: u64 = 200;

#[test]
fn memo_warm_and_cold_schedules_are_bit_identical() {
    let machine = MachineDescription::rs6k();
    let hits_before = region_memo_counters().hits;
    for seed in 1..=CASES {
        let mut rng = XorShift64Star::new(seed);
        let case = generate(&mut rng);

        let mut off = case.function.clone();
        let mut config_off = SchedConfig::speculative();
        config_off.region_memo = false;
        compile(&mut off, &machine, &config_off).expect("memo-off compiles");

        // Memo on (the default): the first compile fills the process-wide
        // cache for this function's regions, the second splices from it.
        let config_on = SchedConfig::speculative();
        let mut cold = case.function.clone();
        compile(&mut cold, &machine, &config_on).expect("memo-on (cold) compiles");
        let mut warm = case.function.clone();
        compile(&mut warm, &machine, &config_on).expect("memo-on (warm) compiles");

        let reference = off.to_string();
        assert_eq!(
            reference,
            cold.to_string(),
            "seed {seed}: memo-on (cold) diverges from memo-off\n{}",
            case.text
        );
        assert_eq!(
            reference,
            warm.to_string(),
            "seed {seed}: memo-on (warm) diverges from memo-off\n{}",
            case.text
        );

        // Duplication on: memo off, cold and warm again.
        let dup_on = SchedConfig {
            duplication: true,
            ..SchedConfig::speculative()
        };
        let dup_off = SchedConfig {
            region_memo: false,
            ..dup_on.clone()
        };
        let compiled = |config: &SchedConfig, what: &str| {
            let mut f = case.function.clone();
            compile(&mut f, &machine, config).unwrap_or_else(|e| panic!("{what}: {e}"));
            let origins: Vec<_> = f.dup_origins().collect();
            (f.to_string(), origins, f.inst_id_bound())
        };
        let reference = compiled(&dup_off, "dup memo-off");
        for what in ["dup memo-on (cold)", "dup memo-on (warm)"] {
            assert_eq!(
                reference,
                compiled(&dup_on, what),
                "seed {seed}: {what} diverges from dup memo-off\n{}",
                case.text
            );
        }
    }
    // The sweep must actually have exercised the splice path, not just
    // 200 cold misses (the counter is process-wide and monotonic, so a
    // delta is the only assertion that cannot race a parallel test).
    assert!(
        region_memo_counters().hits > hits_before,
        "no region memo hits across {CASES} warm compiles"
    );
}
