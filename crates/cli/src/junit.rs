//! JUnit XML rendering of a campaign: one `<testsuite>` per campaign,
//! one `<testcase>` per sweep point, so CI systems can surface degraded
//! campaigns (tripped limits, failed assertions, worker panics) without
//! parsing `result.json`.
//!
//! The XML is fully deterministic: testcase times are the runs'
//! *simulated* makespans (1 ps = 1e-12 s), never host wall clock, so —
//! like the JSON artifact — the report is byte-identical for every
//! `--jobs` value.

use crate::campaign::{Campaign, CampaignRun, ExitReason};

/// Renders `campaign` as a JUnit XML document.
///
/// Mapping: a run with exit `ok` passes; a run that executed but failed
/// (assertion or worker panic) is a `<failure>`; a run skipped by a
/// tripped limit (including campaign truncation) is `<skipped>`.
pub fn junit_xml(campaign: &Campaign) -> String {
    let mut failures = 0usize;
    let mut skipped = 0usize;
    for run in &campaign.runs {
        match case_kind(run) {
            CaseKind::Pass => {}
            CaseKind::Failure => failures += 1,
            CaseKind::Skipped => skipped += 1,
        }
    }
    let name = escape(&campaign.manifest.name);
    let tests = campaign.runs.len();
    let mut xml = String::new();
    xml.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    xml.push_str(&format!(
        "<testsuites name=\"{name}\" tests=\"{tests}\" failures=\"{failures}\" \
         skipped=\"{skipped}\">\n"
    ));
    xml.push_str(&format!(
        "  <testsuite name=\"{name}\" tests=\"{tests}\" failures=\"{failures}\" \
         skipped=\"{skipped}\">\n"
    ));
    for run in &campaign.runs {
        let case = escape(&run.spec.id());
        // Simulated seconds: deterministic, unlike host wall clock.
        let time = run.report.as_ref().map_or(0, |r| r.makespan_ps()) as f64 * 1e-12;
        let message = escape(&format!("{}: {}", run.exit.reason.as_str(), run.exit.detail));
        match case_kind(run) {
            CaseKind::Pass => {
                xml.push_str(&format!(
                    "    <testcase name=\"{case}\" classname=\"{name}\" time=\"{time:.12}\"/>\n"
                ));
            }
            CaseKind::Failure => {
                xml.push_str(&format!(
                    "    <testcase name=\"{case}\" classname=\"{name}\" time=\"{time:.12}\">\n      \
                     <failure message=\"{message}\"/>\n    </testcase>\n"
                ));
            }
            CaseKind::Skipped => {
                xml.push_str(&format!(
                    "    <testcase name=\"{case}\" classname=\"{name}\" time=\"{time:.12}\">\n      \
                     <skipped message=\"{message}\"/>\n    </testcase>\n"
                ));
            }
        }
    }
    xml.push_str("  </testsuite>\n</testsuites>\n");
    xml
}

enum CaseKind {
    Pass,
    Failure,
    Skipped,
}

fn case_kind(run: &CampaignRun) -> CaseKind {
    match run.exit.reason {
        ExitReason::Ok => CaseKind::Pass,
        // Tripped limits skip work; everything else is a real failure.
        reason if reason.is_limit() => CaseKind::Skipped,
        _ => CaseKind::Failure,
    }
}

/// Escapes the five XML-special characters for text and attribute
/// positions.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::manifest::{Format, Manifest};

    const MANIFEST: &str = r#"
        [campaign]
        name = "junit <&> smoke"
        systems = ["mondrian"]
        tuples_per_vault = 32

        [[stage]]
        op = "filter"

        [[stage]]
        op = "sort_by_key"
    "#;

    #[test]
    fn clean_campaign_renders_passing_suite() {
        let manifest = Manifest::parse(MANIFEST, Format::Toml).unwrap();
        let campaign = run_campaign(&manifest, |_| {});
        let xml = junit_xml(&campaign);
        assert!(xml.starts_with("<?xml version=\"1.0\""));
        assert!(xml.contains("tests=\"1\" failures=\"0\" skipped=\"0\""));
        assert!(xml.contains("junit &lt;&amp;&gt; smoke"), "name is escaped");
        assert!(!xml.contains("<failure"));
        assert!(!xml.contains("<skipped"));
        // Deterministic across re-runs.
        assert_eq!(xml, junit_xml(&run_campaign(&manifest, |_| {})));
    }

    #[test]
    fn limit_skips_render_as_skipped_cases() {
        let text = format!("{MANIFEST}\n[limits]\nmax_sweep_points = 0\n");
        let manifest = Manifest::parse(&text, Format::Toml).unwrap();
        let campaign = run_campaign(&manifest, |_| {});
        let xml = junit_xml(&campaign);
        assert!(xml.contains("tests=\"1\" failures=\"0\" skipped=\"1\""));
        assert!(xml.contains("<skipped message=\"limit_sweep_points:"));
        assert!(xml.contains("time=\"0."));
    }

    #[test]
    fn escape_covers_the_specials() {
        assert_eq!(escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
    }
}
