//! The single-file HTML schedule report: no JavaScript, no external
//! assets, inline CSS only — `gisc --report out.html`.

use gis_ir::Function;
use gis_trace::{render_report, Metrics, TraceEvent, TraceQuery};
use std::fmt::Write as _;

/// Escapes text for embedding in HTML element content or attributes.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// A generic single-file HTML document builder: titled sections with
/// anchor navigation, inline CSS, zero scripts. [`schedule_report`]
/// assembles the canonical scheduler report on top of it.
#[derive(Debug, Clone)]
pub struct HtmlReport {
    title: String,
    subtitle: String,
    sections: Vec<(String, String, String)>,
}

impl HtmlReport {
    /// Starts a report with a page title and a dimmed subtitle line.
    pub fn new(title: &str, subtitle: &str) -> HtmlReport {
        HtmlReport {
            title: title.to_owned(),
            subtitle: subtitle.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Appends a section. `id` becomes the anchor (`#id`), `heading` the
    /// visible `<h2>`; `body` is trusted HTML (escape data with
    /// [`HtmlReport::pre`] / [`HtmlReport::table`] when building it).
    pub fn section(&mut self, id: &str, heading: &str, body: String) -> &mut Self {
        self.sections
            .push((id.to_owned(), heading.to_owned(), body));
        self
    }

    /// A `<pre>` block with the text escaped.
    pub fn pre(text: &str) -> String {
        format!("<pre>{}</pre>", esc(text))
    }

    /// A table from escaped header and cell strings.
    pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
        let mut out = String::from("<table><thead><tr>");
        for h in headers {
            let _ = write!(out, "<th>{}</th>", esc(h));
        }
        out.push_str("</tr></thead><tbody>");
        for row in rows {
            out.push_str("<tr>");
            for cell in row {
                let _ = write!(out, "<td>{}</td>", esc(cell));
            }
            out.push_str("</tr>");
        }
        out.push_str("</tbody></table>");
        out
    }

    /// Renders the complete, self-contained HTML document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        let _ = writeln!(out, "<title>{}</title>", esc(&self.title));
        out.push_str(
            "<style>\n\
             body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #222; }\n\
             h1 { font-size: 1.5rem; margin-bottom: 0.25rem; }\n\
             h2 { font-size: 1.15rem; border-bottom: 1px solid #ddd; padding-bottom: 0.25rem; margin-top: 2rem; }\n\
             .subtitle { color: #666; margin-top: 0; }\n\
             nav { margin: 1rem 0; }\n\
             nav a { margin-right: 1rem; }\n\
             pre { background: #f6f8fa; padding: 0.75rem; overflow-x: auto; border-radius: 4px; }\n\
             table { border-collapse: collapse; }\n\
             th, td { border: 1px solid #ddd; padding: 0.25rem 0.6rem; text-align: left; font-variant-numeric: tabular-nums; }\n\
             th { background: #f0f2f5; }\n\
             .cols { display: flex; gap: 1rem; flex-wrap: wrap; }\n\
             .cols > div { flex: 1 1 20rem; min-width: 0; }\n\
             .note { color: #666; font-style: italic; }\n\
             </style>\n</head>\n<body>\n",
        );
        let _ = writeln!(out, "<h1>{}</h1>", esc(&self.title));
        let _ = writeln!(out, "<p class=\"subtitle\">{}</p>", esc(&self.subtitle));
        out.push_str("<nav>");
        for (id, heading, _) in &self.sections {
            let _ = write!(out, "<a href=\"#{}\">{}</a>", esc(id), esc(heading));
        }
        out.push_str("</nav>\n");
        for (id, heading, body) in &self.sections {
            let _ = writeln!(
                out,
                "<section id=\"{}\">\n<h2>{}</h2>\n{}\n</section>",
                esc(id),
                esc(heading),
                body
            );
        }
        out.push_str("</body>\n</html>\n");
        out
    }
}

/// Inputs of the canonical schedule report.
#[derive(Debug)]
pub struct ScheduleReport<'a> {
    /// Page title (usually the input file or function name).
    pub title: &'a str,
    /// Machine description name.
    pub machine: &'a str,
    /// The function before scheduling, if available.
    pub before: Option<&'a Function>,
    /// The scheduled function.
    pub after: &'a Function,
    /// The recorded trace events, oldest first.
    pub events: &'a [TraceEvent],
    /// Rendered cycle timeline text (stall-annotated), if a timed run
    /// was performed.
    pub timeline: Option<&'a str>,
    /// Simulated `(base, scheduled)` cycles, if a timed run was
    /// performed.
    pub cycles: Option<(u64, u64)>,
    /// Extra named counters folded into the metrics section — the
    /// driver passes the scheduler's perf counters (dependence edges
    /// built, whole-function liveness solves and §5.3 liveness queries)
    /// and the region memo's `cache.region.*` counters, none of which are
    /// derived from trace events. Empty leaves the section
    /// event-derived only.
    pub perf_counters: &'a [(&'a str, u64)],
}

fn summary_section(r: &ScheduleReport<'_>, q: &TraceQuery) -> String {
    let mut rows = vec![
        vec!["function".to_owned(), r.after.name().to_owned()],
        vec!["machine".to_owned(), r.machine.to_owned()],
        vec!["trace events".to_owned(), r.events.len().to_string()],
        vec![
            "motions".to_owned(),
            format!(
                "{} ({} useful, {} speculative)",
                q.motions().len(),
                q.motions()
                    .iter()
                    .filter(|m| m.kind == gis_trace::MotionKind::Useful)
                    .count(),
                q.motions()
                    .iter()
                    .filter(|m| m.kind == gis_trace::MotionKind::Speculative)
                    .count()
            ),
        ],
        vec!["renames".to_owned(), q.renames().len().to_string()],
        vec!["rejections".to_owned(), q.rejections().len().to_string()],
    ];
    // Only mention duplication when it happened, so reports from gate-off
    // runs render byte-identically to before the feature existed.
    if !q.duplications().is_empty() {
        let copies: usize = q.duplications().iter().map(|d| d.copies.len()).sum();
        rows.insert(
            5,
            vec![
                "duplications".to_owned(),
                format!("{} ({} copies minted)", q.duplications().len(), copies),
            ],
        );
    }
    if let Some((base, sched)) = r.cycles {
        let delta = if base == 0 {
            0.0
        } else {
            100.0 * (sched as f64 - base as f64) / base as f64
        };
        rows.push(vec![
            "simulated cycles".to_owned(),
            format!("{base} → {sched} ({delta:+.1}%)"),
        ]);
    }
    HtmlReport::table(&["what", "value"], &rows)
}

fn motions_section(q: &TraceQuery) -> String {
    if q.motions().is_empty() {
        return "<p class=\"note\">No cross-block motions were performed.</p>".to_owned();
    }
    let rows: Vec<Vec<String>> = q
        .motions()
        .iter()
        .map(|m| {
            vec![
                format!("I{}", m.inst),
                m.kind.to_string(),
                m.from.clone(),
                m.into.clone(),
                m.cycle.to_string(),
                m.tie.to_string(),
                q.rename_of(m.inst)
                    .map(|r| format!("{} → {}", r.old, r.new))
                    .unwrap_or_default(),
            ]
        })
        .collect();
    HtmlReport::table(
        &[
            "inst",
            "kind",
            "from",
            "into",
            "cycle",
            "tie-break",
            "rename",
        ],
        &rows,
    )
}

fn regions_section(q: &TraceQuery) -> String {
    let mut out = String::new();
    if q.regions().is_empty() && q.skipped_regions().is_empty() {
        return "<p class=\"note\">The global passes visited no region (basic-block-only \
                level, or a single-block function).</p>"
            .to_owned();
    }
    let mut seen = std::collections::HashSet::new();
    for scope in q.regions() {
        if !seen.insert(scope.region) {
            continue;
        }
        let _ = writeln!(out, "<h3>Region {}</h3>", scope.region);
        let _ = writeln!(
            out,
            "<p>blocks: <code>{}</code></p>",
            esc(&scope.blocks.join(" "))
        );
        let in_scope: Vec<Vec<String>> = q
            .motions()
            .iter()
            .filter(|m| scope.blocks.contains(&m.from) || scope.blocks.contains(&m.into))
            .map(|m| {
                vec![
                    format!("I{}", m.inst),
                    m.kind.to_string(),
                    format!("{} → {}", m.from, m.into),
                    m.cycle.to_string(),
                ]
            })
            .collect();
        if in_scope.is_empty() {
            out.push_str("<p class=\"note\">no motions in this region</p>");
        } else {
            out.push_str(&HtmlReport::table(
                &["inst", "kind", "motion", "cycle"],
                &in_scope,
            ));
        }
    }
    for s in q.skipped_regions() {
        let _ = writeln!(
            out,
            "<p>Region {} skipped: <code>{}</code></p>",
            s.region,
            esc(&s.reason.to_string())
        );
    }
    out
}

fn metrics_section(m: &Metrics) -> String {
    let mut out = String::new();
    let counters: Vec<Vec<String>> = m
        .counters()
        .map(|(name, value)| vec![name.to_owned(), value.to_string()])
        .collect();
    out.push_str(&HtmlReport::table(&["counter", "value"], &counters));
    if !m.pass_nanos().is_empty() {
        let passes: Vec<Vec<String>> = m
            .pass_nanos()
            .iter()
            .map(|(pass, nanos)| vec![pass.to_string(), format!("{:.3}", *nanos as f64 / 1e6)])
            .collect();
        out.push_str("<h3>Per-pass wall time</h3>");
        out.push_str(&HtmlReport::table(&["pass", "ms"], &passes));
    }
    out
}

fn schedule_section(r: &ScheduleReport<'_>) -> String {
    match r.before {
        Some(before) => format!(
            "<div class=\"cols\"><div><h3>before</h3>{}</div><div><h3>after</h3>{}</div></div>",
            HtmlReport::pre(&before.to_string()),
            HtmlReport::pre(&r.after.to_string())
        ),
        None => HtmlReport::pre(&r.after.to_string()),
    }
}

/// Assembles the canonical schedule report: summary, before/after
/// schedule, motion table, per-region decisions, metrics, the
fn duplications_section(q: &TraceQuery) -> String {
    let rows: Vec<Vec<String>> = q
        .duplications()
        .iter()
        .map(|d| {
            vec![
                format!("I{}", d.inst),
                d.home.clone(),
                d.into.clone(),
                d.cycle.to_string(),
                d.copies
                    .iter()
                    .map(|(b, id)| format!("I{id} in {b}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            ]
        })
        .collect();
    HtmlReport::table(
        &["inst", "join left", "original into", "cycle", "copies"],
        &rows,
    )
}

/// stall-annotated cycle timeline, and the full decision trace — one
/// self-contained HTML file with no scripts or external assets.
pub fn schedule_report(r: &ScheduleReport<'_>) -> String {
    let q = TraceQuery::new(r.events.iter());
    let mut metrics = Metrics::from_events(r.events.iter());
    for &(name, value) in r.perf_counters {
        metrics.record(name, value);
    }
    let mut doc = HtmlReport::new(
        r.title,
        &format!(
            "global instruction scheduling report — machine {}, generated by gis-viz",
            r.machine
        ),
    );
    doc.section("summary", "Summary", summary_section(r, &q));
    doc.section("schedule", "Schedule (before / after)", schedule_section(r));
    doc.section("motions", "Motions", motions_section(&q));
    if !q.duplications().is_empty() {
        doc.section(
            "duplications",
            "Duplication-based motions",
            duplications_section(&q),
        );
    }
    doc.section("regions", "Per-region decisions", regions_section(&q));
    doc.section("metrics", "Metrics", metrics_section(&metrics));
    doc.section(
        "timeline",
        "Cycle timeline",
        match r.timeline {
            Some(text) => HtmlReport::pre(text),
            None => "<p class=\"note\">No timed run was performed (the program was not \
                     executed, or execution failed).</p>"
                .to_owned(),
        },
    );
    doc.section(
        "trace",
        "Decision trace",
        if r.events.is_empty() {
            "<p class=\"note\">No events were recorded.</p>".to_owned()
        } else {
            HtmlReport::pre(&render_report(r.events.iter()))
        },
    );
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_core::{compile_observed, SchedConfig, SchedLevel};
    use gis_machine::MachineDescription;
    use gis_trace::Recorder;
    use gis_workloads::minmax;

    fn report() -> String {
        let before = minmax::figure2_function(99);
        let mut after = before.clone();
        let mut rec = Recorder::new();
        compile_observed(
            &mut after,
            &MachineDescription::rs6k(),
            &SchedConfig::paper_example(SchedLevel::Speculative),
            &mut rec,
        )
        .expect("compiles");
        let events = rec.into_events();
        schedule_report(&ScheduleReport {
            title: "minmax",
            machine: "rs6k",
            before: Some(&before),
            after: &after,
            events: &events,
            timeline: Some(" cycle  fixed(1)\n     0         #\n"),
            cycles: Some((22, 12)),
            perf_counters: &[
                ("perf.dep-edges", 41),
                ("cache.region.hit", 3),
                ("cache.region.miss", 9),
            ],
        })
    }

    #[test]
    fn report_is_self_contained_with_all_sections() {
        let html = report();
        assert!(html.starts_with("<!DOCTYPE html>"));
        for id in [
            "summary", "schedule", "motions", "regions", "metrics", "timeline", "trace",
        ] {
            assert!(html.contains(&format!("<section id=\"{id}\">")), "{id}");
        }
        // Self-contained: no scripts, no external references.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        // The Figure 6 motions and rename are in the tables.
        assert!(html.contains("I12"));
        assert!(html.contains("cr6 →"));
        assert!(html.contains("22 → 12"));
        // The driver's perf counters land in the metrics table.
        assert!(html.contains("<td>perf.dep-edges</td><td>41</td>"));
        // ... and so do the region memo's cache counters.
        assert!(html.contains("<td>cache.region.hit</td><td>3</td>"));
        assert!(html.contains("<td>cache.region.miss</td><td>9</td>"));
    }

    #[test]
    fn html_escaping_guards_the_report() {
        assert_eq!(esc("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        let pre = HtmlReport::pre("x < y && z");
        assert_eq!(pre, "<pre>x &lt; y &amp;&amp; z</pre>");
    }

    #[test]
    fn empty_trace_still_renders_every_section() {
        let f = gis_ir::parse_function("func s\nA:\n LI r1=1\n PRINT r1\n RET\n").expect("parses");
        let html = schedule_report(&ScheduleReport {
            title: "s",
            machine: "rs6k",
            before: None,
            after: &f,
            events: &[],
            timeline: None,
            cycles: None,
            perf_counters: &[],
        });
        assert!(html.contains("<section id=\"metrics\">"));
        assert!(html.contains("No events were recorded"));
        assert!(html.contains("No timed run was performed"));
    }
}
