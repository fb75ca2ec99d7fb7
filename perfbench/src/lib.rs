//! The gis benchmark: three closed-loop workloads that reach the program
//! only through its public entry points, an end-to-end run that checks
//! every output, a traced run that breaks the time down by layer, and a
//! comparison of two sets of runs. See `README.md` next to this crate.

pub mod compare;
pub mod inputs;
pub mod local;
pub mod report;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;

use inputs::Workload;
use report::{Ledger, Outcome};
use spans::Recorder;

/// Runs one workload as `args` asks; the ledger counts every checked op
/// whether or not the run completes.
pub fn run_workload(args: &run::Args) -> (Result<(Outcome, Option<Recorder>), String>, Ledger) {
    let mut ledger = Ledger::default();
    let result = match args.workload {
        Workload::Kernels | Workload::LargeFn => local::run(args, &mut ledger),
        Workload::ServeEdit => serve::run(args, &mut ledger),
    };
    (result, ledger)
}
