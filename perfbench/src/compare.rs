//! Comparison mode: reads two sets of saved run outputs and prints, for
//! every workload × end-to-end metric, both medians, both quartiles and a
//! verdict against the metric's bound from `BENCHMARK.json`. With one set
//! it prints each metric's spread against its bound instead.

use crate::stats;
use gis_trace::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One saved run: the header line and the result line of its stdout.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name from the header.
    pub workload: String,
    /// Whether it was a traced run.
    pub trace: bool,
    /// The result line's `correct`.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The header line every run prints first.
pub fn header(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "# perfbench workload={workload} seed={seed} trace={}",
        u8::from(trace)
    )
}

/// Parses one run's stdout.
pub fn parse_run(text: &str) -> Result<RunRecord, String> {
    let head = text
        .lines()
        .find_map(|l| l.strip_prefix("# perfbench "))
        .ok_or("no '# perfbench' header line")?;
    let field = |key: &str| {
        head.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .ok_or(format!("header lacks {key}"))
    };
    let workload = field("workload")?.to_owned();
    let trace = field("trace")? == "1";
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let doc = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err("result line has no metrics object".to_owned());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in members {
        let value = m
            .get("value")
            .and_then(number)
            .ok_or(format!("{name}: no value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(RunRecord {
        workload,
        trace,
        correct,
        metrics,
    })
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// Every run saved in `dir` (one file per run), or `dir` itself when it
/// is a file.
pub fn load_runs(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let mut paths: Vec<_> = if dir.is_file() {
        vec![dir.to_path_buf()]
    } else {
        std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect()
    };
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// An end-to-end metric's direction and bound.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metric specs of a `BENCHMARK.json` document.
pub fn load_specs(bench_json: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = Json::parse(bench_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".to_owned());
    };
    items
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("an end_to_end entry has no name".to_owned()),
            };
            let lower_is_better = matches!(m.get("better"), Some(Json::Str(s)) if s == "lower");
            let bound = m
                .get("bound")
                .and_then(number)
                .ok_or(format!("{name}: no bound"))?;
            Ok(MetricSpec {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// How a candidate set of runs compares with a base set on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and no gain beyond the base's own spread.
    Agrees,
    /// Better by more than the base's interquartile distance.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// A set spreads wider than the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Agrees => "agrees",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of a set (quartiles collapse to the value for a
/// single run).
pub fn summary(values: &[f64]) -> (f64, f64, f64) {
    let m = stats::median(values);
    let (q1, q3) = if values.len() >= 2 {
        stats::quartiles(values)
    } else {
        (m, m)
    };
    (m, q1, q3)
}

fn rel_spread(values: &[f64]) -> f64 {
    let (m, q1, q3) = summary(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The verdict for `cand` against `base` under `spec`.
pub fn verdict(base: &[f64], cand: &[f64], spec: &MetricSpec) -> Verdict {
    let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
    let all = |f: &dyn Fn(f64, f64) -> bool| cand.iter().all(|&c| base.iter().all(|&b| f(c, b)));
    if rel_spread(base) > spec.bound || rel_spread(cand) > spec.bound {
        return if all(&|c, b| better(c, b)) {
            Verdict::Better
        } else if all(&|c, b| better(b, c)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let (mb, q1, q3) = summary(base);
    let (mc, _, _) = summary(cand);
    let gain = if spec.lower_is_better {
        mb - mc
    } else {
        mc - mb
    };
    if -gain > spec.bound * mb.abs() {
        Verdict::Worse
    } else if gain > 0.0 && gain > q3 - q1 {
        Verdict::Better
    } else {
        Verdict::Agrees
    }
}

fn by_workload(runs: &[RunRecord]) -> BTreeMap<&str, Vec<&RunRecord>> {
    let mut out: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in runs.iter().filter(|r| !r.trace) {
        out.entry(r.workload.as_str()).or_default().push(r);
    }
    out
}

fn values(runs: &[&RunRecord], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// The comparison table, and whether every row agrees or is better.
pub fn compare(base: &[RunRecord], cand: &[RunRecord], specs: &[MetricSpec]) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<17} {:>5} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "base med",
        "base q1..q3",
        "cand med",
        "cand q1..q3",
        "change",
        "bound"
    );
    let (b, c) = (by_workload(base), by_workload(cand));
    let mut ok = true;
    for (workload, base_runs) in &b {
        let Some(cand_runs) = c.get(workload) else {
            let _ = writeln!(out, "{workload:<11} (no candidate runs)");
            ok = false;
            continue;
        };
        for spec in specs {
            let (bv, cv) = (values(base_runs, &spec.name), values(cand_runs, &spec.name));
            if bv.is_empty() || cv.is_empty() {
                let _ = writeln!(out, "{workload:<11} {:<17} (missing)", spec.name);
                ok = false;
                continue;
            }
            let v = verdict(&bv, &cv, spec);
            ok &= matches!(v, Verdict::Agrees | Verdict::Better);
            let (mb, b1, b3) = summary(&bv);
            let (mc, c1, c3) = summary(&cv);
            let change = if mb == 0.0 { 0.0 } else { (mc - mb) / mb.abs() };
            let _ = writeln!(
                out,
                "{workload:<11} {:<17} {:>2}/{:<2} {mb:>12.5} {:>25} {mc:>12.5} {:>25} {:>7.2}% {:>5.0}%  {}",
                spec.name,
                bv.len(),
                cv.len(),
                format!("{b1:.5}..{b3:.5}"),
                format!("{c1:.5}..{c3:.5}"),
                change * 100.0,
                spec.bound * 100.0,
                v.label()
            );
        }
    }
    for workload in c.keys().filter(|w| !b.contains_key(*w)) {
        let _ = writeln!(out, "{workload:<11} (no base runs)");
        ok = false;
    }
    (out, ok)
}

/// One set's steadiness: each metric's interquartile spread as a share
/// of its median, against its bound. Returns the table and whether every
/// spread but `setup_s`'s is within a third of its bound.
pub fn spreads(runs: &[RunRecord], specs: &[MetricSpec]) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<17} {:>4} {:>12} {:>8} {:>6}  steady (< bound/3)",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    let mut ok = true;
    for (workload, group) in by_workload(runs) {
        for spec in specs {
            let v = values(&group, &spec.name);
            if v.is_empty() {
                continue;
            }
            let s = rel_spread(&v);
            let steady = s < spec.bound / 3.0;
            ok &= steady || spec.name == "setup_s";
            let _ = writeln!(
                out,
                "{workload:<11} {:<17} {:>4} {:>12.5} {:>7.2}% {:>5.0}%  {}",
                spec.name,
                v.len(),
                stats::median(&v),
                s * 100.0,
                spec.bound * 100.0,
                if steady { "yes" } else { "NO" }
            );
        }
    }
    (out, ok)
}
