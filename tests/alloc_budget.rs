//! Heap allocations per compile stay inside fixed budgets.
//!
//! A counting global allocator wraps the system one, and one test
//! compiles each input cold (region memo cleared) twice, counting the
//! allocator calls and bytes of each compile. The counter is
//! process-wide and `cargo test` runs tests on parallel threads, so this
//! file holds exactly one test. Debug builds arm the scheduler's oracle
//! checks ([`gis_core::TestHooks::armed`]), which allocate per region by
//! design, so the budgets hold only in release:
//! `cargo test --release --test alloc_budget`.

use gis_core::{compile, region_memo_clear, SchedConfig};
use gis_ir::{parse_function, Function, MAX_INST_ID};
use gis_machine::MachineDescription;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocating call and the bytes
/// it asked for (a growing `realloc` counts its growth).
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let grown = new_size.saturating_sub(layout.size());
        BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls and bytes of one cold compile of `f` (a clone is
/// made before counting starts).
fn counted(f: &Function, machine: &MachineDescription, config: &SchedConfig) -> (u64, u64) {
    region_memo_clear();
    let mut f = f.clone();
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    compile(&mut f, machine, config).expect("compiles");
    let counts = (
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    );
    drop(f);
    counts
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds arm the oracle checks, which allocate per region by design"
)]
fn allocations_per_compile_stay_inside_their_budgets() {
    let machine = MachineDescription::rs6k();
    let config = |jobs: usize| SchedConfig {
        jobs,
        ..SchedConfig::speculative()
    };
    // The `large-fn` benchmark's 48x4 rung, variant 0.
    let rung = gis_workloads::synth::many_loops_scaled(48, 4, 2011)
        .program
        .function;
    // (input, jobs, allocator calls, bytes) per compile. The budgets sit
    // about 15% above the largest count measured when they were set (25%
    // at jobs 2, where the order in which the two workers claim tasks
    // moves a few copy-on-write block copies between runs). The parent
    // of the change that set them made 592 calls for gcc, 575 for
    // fletcher and 4,966 and about 9,600 for the rung at jobs 1 and 2.
    let cases: [(&str, Function, usize, u64, u64); 4] = [
        (
            "gcc",
            gis_workloads::spec::gcc(64).program.function,
            1,
            470,
            89_500,
        ),
        (
            "fletcher",
            gis_workloads::kernels::fletcher(64).program.function,
            1,
            425,
            80_500,
        ),
        ("many-loops 48x4", rung.clone(), 1, 4_220, 3_540_000),
        ("many-loops 48x4", rung, 2, 8_760, 6_010_000),
    ];
    let mut report = String::new();
    let mut over = false;
    for (name, f, jobs, max_calls, max_bytes) in &cases {
        for run in 0..2 {
            let (calls, bytes) = counted(f, &machine, &config(*jobs));
            report.push_str(&format!(
                "{name} jobs {jobs} run {run}: {calls} calls (budget {max_calls}), \
                 {bytes} bytes (budget {max_bytes})\n"
            ));
            over |= calls > *max_calls || bytes > *max_bytes;
        }
    }

    // Instruction ids do not size the scheduler's tables: the function of
    // tests/large_ids.rs with one explicit id just below 2^20 allocates
    // at most twice what it does without it.
    let f0 = gis_workloads::synth::many_loops_scaled(12, 2, 7)
        .program
        .function;
    let text = f0.to_string();
    let (_, last) = f0.insts().last().expect("nonempty");
    let spelled = format!("(I{:<4})", last.id.index());
    let big_text = text.replacen(&spelled, &format!("(I{})", MAX_INST_ID - 1), 1);
    assert_ne!(text, big_text, "the last id is spelled {spelled}");
    let plain = parse_function(&text).expect("parses");
    let big = parse_function(&big_text).expect("parses");
    for jobs in [1, 2] {
        let (_, plain_bytes) = counted(&plain, &machine, &config(jobs));
        let (_, big_bytes) = counted(&big, &machine, &config(jobs));
        report.push_str(&format!(
            "large ids jobs {jobs}: {big_bytes} bytes with the id, {plain_bytes} without\n"
        ));
        over |= big_bytes > 2 * plain_bytes;
    }
    assert!(!over, "over budget:\n{report}");
    println!("{report}");
}
