//! Structured JSON serialization of comparison reports — the machine
//! twin of `Present`'s two-column tables.
//!
//! One serializer feeds every consumer: `campion compare --format json`,
//! the `campion-fleetd` snapshot store, and the fleet HTTP API, so a
//! report served from the daemon's cache is byte-identical to the CLI's
//! output for the same pair. The document is deterministic — fields are
//! emitted in a fixed order, maps come from `BTreeMap`s upstream — and the
//! text `Display` rendering is untouched.
//!
//! The encoder is hand-rolled (the repo's vendored-shim philosophy: no
//! serde in the build image); the matching decoder lives in
//! `campion_trace::json`, which the fleet store uses to read documents
//! back.

use std::fmt::Write as _;

use campion_bdd::ManagerStats;
use campion_cfg::Span;
use campion_trace::json::escape;

use crate::report::{CampionReport, FindingSide, PolicyDiffReport, StructuralFinding};

fn push_str_field(out: &mut String, key: &str, value: &str, comma: bool) {
    let _ = write!(
        out,
        "\"{key}\": \"{}\"{}",
        escape(value),
        if comma { ", " } else { "" }
    );
}

fn span_json(s: &Span) -> String {
    format!("{{\"start\": {}, \"end\": {}}}", s.start, s.end)
}

fn spans_json(spans: &[Span]) -> String {
    let parts: Vec<String> = spans.iter().map(span_json).collect();
    format!("[{}]", parts.join(", "))
}

fn opt_str_json(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", escape(s)),
        None => "null".to_string(),
    }
}

fn str_list_json(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", parts.join(", "))
}

/// Serialize one semantic difference. Prefix ranges use their canonical
/// `Display` form (`"10.9.0.0/16:16-32"`), which `PrefixRange::from_str`
/// parses back.
pub fn policy_diff_json(d: &PolicyDiffReport) -> String {
    let mut o = String::from("{");
    push_str_field(&mut o, "context", &d.context, true);
    push_str_field(&mut o, "name1", &d.name1, true);
    push_str_field(&mut o, "name2", &d.name2, true);
    let ranges = |rs: &[campion_net::PrefixRange]| {
        str_list_json(&rs.iter().map(|r| r.to_string()).collect::<Vec<_>>())
    };
    let _ = write!(o, "\"included\": {}, ", ranges(&d.included));
    let _ = write!(o, "\"excluded\": {}, ", ranges(&d.excluded));
    let _ = write!(o, "\"example\": {}, ", opt_str_json(&d.example));
    push_str_field(&mut o, "action1", &d.action1, true);
    push_str_field(&mut o, "action2", &d.action2, true);
    push_str_field(&mut o, "text1", &d.text1, true);
    push_str_field(&mut o, "text2", &d.text2, true);
    let _ = write!(o, "\"spans1\": {}, ", spans_json(&d.spans1));
    let _ = write!(o, "\"spans2\": {}, ", spans_json(&d.spans2));
    let _ = write!(o, "\"default1\": {}, ", d.default1);
    let _ = write!(o, "\"default2\": {}}}", d.default2);
    o
}

/// Serialize one structural finding.
pub fn structural_finding_json(s: &StructuralFinding) -> String {
    let mut o = String::from("{");
    push_str_field(&mut o, "component", &s.component, true);
    push_str_field(&mut o, "key", &s.key, true);
    push_str_field(&mut o, "description", &s.description, true);
    push_str_field(&mut o, "value1", &s.value1, true);
    push_str_field(&mut o, "value2", &s.value2, true);
    let span = |sp: &Option<Span>| sp.as_ref().map_or("null".to_string(), span_json);
    let _ = write!(o, "\"span1\": {}, ", span(&s.span1));
    let _ = write!(o, "\"span2\": {}, ", span(&s.span2));
    let side = match s.side {
        FindingSide::OnlyFirst => "only_first",
        FindingSide::OnlySecond => "only_second",
        FindingSide::Both => "both",
    };
    let _ = write!(o, "\"side\": \"{side}\"}}");
    o
}

/// Serialize a full comparison report as a stable JSON document
/// (`campion compare --format json`, the fleet store and API).
pub fn report_json(r: &CampionReport) -> String {
    let mut o = String::from("{\n  ");
    push_str_field(&mut o, "router1", &r.router1, true);
    push_str_field(&mut o, "router2", &r.router2, true);
    let _ = write!(o, "\"equivalent\": {}, ", r.is_equivalent());
    let _ = write!(o, "\"total_differences\": {},\n  ", r.total_differences());
    let diffs = |ds: &[PolicyDiffReport]| {
        let parts: Vec<String> = ds.iter().map(policy_diff_json).collect();
        format!("[{}]", parts.join(",\n    "))
    };
    let _ = write!(o, "\"route_map_diffs\": {},\n  ", diffs(&r.route_map_diffs));
    let _ = write!(o, "\"acl_diffs\": {},\n  ", diffs(&r.acl_diffs));
    let structural: Vec<String> = r.structural.iter().map(structural_finding_json).collect();
    let _ = write!(o, "\"structural\": [{}],\n  ", structural.join(",\n    "));
    let _ = write!(o, "\"unmatched\": {}\n}}\n", str_list_json(&r.unmatched));
    o
}

/// Serialize the aggregate BDD-engine counters (`campion compare
/// --stats-json`): the machine twin of `CampionReport::render_stats`,
/// field-for-field compatible with the per-size rows the scalability bench
/// writes into `BENCH_campion.json`.
pub fn stats_json(s: &ManagerStats) -> String {
    let mut o = String::from("{\n  ");
    let _ = write!(o, "\"bdd_nodes\": {}, ", s.nodes);
    let _ = write!(o, "\"peak_nodes\": {}, ", s.peak_nodes);
    let _ = write!(o, "\"post_gc_nodes\": {},\n  ", s.post_gc_nodes);
    let _ = write!(o, "\"gc_runs\": {}, ", s.gc_runs);
    let _ = write!(o, "\"gc_nodes_freed\": {}, ", s.gc_nodes_freed);
    let _ = write!(o, "\"gc_pauses\": {}, ", s.gc_pauses);
    let _ = write!(o, "\"gc_pause_us\": {}, ", s.gc_pause_us);
    let _ = write!(o, "\"gc_pause_max_us\": {},\n  ", s.gc_pause_max_us);
    let _ = write!(o, "\"unique_grows\": {},\n  ", s.unique_grows);
    let _ = write!(o, "\"unique_lookups\": {}, ", s.unique_lookups);
    let _ = write!(o, "\"unique_hit_rate\": {:.4},\n  ", s.unique_hit_rate());
    let _ = write!(o, "\"apply_lookups\": {}, ", s.apply_lookups);
    let _ = write!(o, "\"apply_hit_rate\": {:.4},\n  ", s.apply_hit_rate());
    let _ = write!(o, "\"rule_cache_lookups\": {}, ", s.rule_cache_lookups);
    let _ = write!(
        o,
        "\"rule_cache_hit_rate\": {:.4},\n  ",
        s.rule_cache_hit_rate()
    );
    let _ = write!(o, "\"pairs_examined\": {}, ", s.pairs_examined);
    let _ = write!(o, "\"pairs_pruned\": {}, ", s.pairs_pruned);
    let _ = write!(o, "\"early_exits\": {}\n}}\n", s.early_exits);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use campion_cfg::parse_config;
    use campion_cfg::samples::{FIGURE1_CISCO, FIGURE1_JUNIPER};
    use campion_ir::lower;
    use campion_trace::json::{parse, Json};

    use crate::driver::{compare_routers, CampionOptions};

    fn fig1_report() -> CampionReport {
        let c = lower(&parse_config(FIGURE1_CISCO).expect("parse")).expect("lower");
        let j = lower(&parse_config(FIGURE1_JUNIPER).expect("parse")).expect("lower");
        compare_routers(&c, &j, &CampionOptions::default())
    }

    #[test]
    fn report_json_parses_and_round_trips_fields() {
        let report = fig1_report();
        let doc = report_json(&report);
        let parsed = parse(&doc).expect("valid JSON");
        assert_eq!(
            parsed.get("router1").and_then(Json::as_str),
            Some("cisco_router")
        );
        assert_eq!(
            parsed
                .get("total_differences")
                .and_then(Json::as_f64)
                .map(|f| f as usize),
            Some(report.total_differences())
        );
        let diffs = parsed
            .get("route_map_diffs")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(diffs.len(), report.route_map_diffs.len());
        // Included prefixes survive as their canonical Display strings.
        let inc = diffs[0]
            .get("included")
            .and_then(Json::as_arr)
            .expect("arr");
        let want: Vec<String> = report.route_map_diffs[0]
            .included
            .iter()
            .map(|r| r.to_string())
            .collect();
        let got: Vec<String> = inc
            .iter()
            .map(|j| j.as_str().expect("string").to_string())
            .collect();
        assert_eq!(got, want);
        for (i, d) in report.route_map_diffs.iter().enumerate() {
            let j = &diffs[i];
            assert_eq!(
                j.get("spans1").and_then(Json::as_arr).map(|a| a.len()),
                Some(d.spans1.len())
            );
            assert_eq!(j.get("default1").and_then(Json::as_bool), Some(d.default1));
            assert_eq!(
                j.get("text1").and_then(Json::as_str),
                Some(d.text1.as_str())
            );
        }
    }

    #[test]
    fn stats_json_parses_and_matches_counters() {
        let report = fig1_report();
        let doc = stats_json(&report.bdd_stats);
        let parsed = parse(&doc).expect("valid JSON");
        let num = |k: &str| parsed.get(k).and_then(Json::as_f64).expect("numeric field");
        assert_eq!(num("bdd_nodes") as u64, report.bdd_stats.nodes);
        assert_eq!(num("peak_nodes") as u64, report.bdd_stats.peak_nodes);
        assert_eq!(
            num("unique_lookups") as u64,
            report.bdd_stats.unique_lookups
        );
        assert!((num("apply_hit_rate") - report.bdd_stats.apply_hit_rate()).abs() < 1e-3);
        assert_eq!(
            num("gc_pause_max_us") as u64,
            report.bdd_stats.gc_pause_max_us
        );
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = report_json(&fig1_report());
        let b = report_json(&fig1_report());
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_not_perturbed_by_serialization() {
        let report = fig1_report();
        let before = report.to_string();
        let _ = report_json(&report);
        assert_eq!(report.to_string(), before);
    }
}
