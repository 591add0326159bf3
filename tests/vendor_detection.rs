//! The first marked line of a configuration picks its parser. These tests
//! hold that rule to the vote it replaced, which scored every line, over
//! every kind of configuration the generators, the fixtures and the fuzz
//! harness produce, and over the `| display set` renderings of their
//! JunOS sides.

mod common;

use campion::cfg::{detect_vendor, parse_config, Vendor};
use campion::fleet::gen::fleet_input;
use campion::fuzz::{build_case, render_cisco, render_juniper, FuzzOptions};
use campion::gen::{
    capirca_acl_pair, scenario1, scenario2, scenario3, university_border_pair,
    university_core_pair, ScenarioPair,
};

/// Is this text in `set`-style form? (There is at least one command, and
/// every line that is neither blank nor a `#` comment starts with `set `.)
fn looks_like_set_style(text: &str) -> bool {
    let mut any = false;
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if !t.starts_with("set ") {
            return false;
        }
        any = true;
    }
    any
}

/// The vote `detect_vendor` took before the first marked line decided:
/// set-style text is JunOS, and any other text scores the markers of each
/// style on every line, ties going to Cisco.
fn vote(text: &str) -> Vendor {
    if looks_like_set_style(text) {
        return Vendor::JuniperJunos;
    }
    let mut juniper_score = 0i32;
    let mut cisco_score = 0i32;
    for line in text.lines() {
        let t = line.trim();
        if t.ends_with('{') || t == "}" || (t.ends_with(';') && !t.starts_with('!')) {
            juniper_score += 1;
        }
        let first = t.split_whitespace().next().unwrap_or("");
        match first {
            "route-map" | "access-list" | "hostname" => cisco_score += 2,
            "ip" | "router" | "interface" => cisco_score += 1,
            "policy-options" | "policy-statement" | "routing-options" | "protocols"
            | "firewall" | "system" => juniper_score += 2,
            _ => {}
        }
    }
    if juniper_score > cisco_score {
        Vendor::JuniperJunos
    } else {
        Vendor::CiscoIos
    }
}

/// Every labelled configuration text of the corpus, JunOS brace texts
/// followed by their `set` renderings.
fn corpus() -> Vec<(String, String)> {
    let mut texts = Vec::new();
    let mut pair = |label: String, cisco: String, juniper: String| {
        texts.push((format!("{label} cisco"), cisco));
        texts.push((format!("{label} juniper"), juniper));
    };
    for seed in 0..20 {
        let scenarios = [
            scenario1(7, seed),
            scenario2(4, seed),
            scenario3(3, 20, seed),
        ];
        for (k, pairs) in scenarios.into_iter().enumerate() {
            for ScenarioPair {
                name,
                cisco,
                juniper,
                ..
            } in pairs
            {
                pair(
                    format!("scenario{} seed {seed} {name}", k + 1),
                    cisco,
                    juniper,
                );
            }
        }
        let (cisco, juniper) = capirca_acl_pair(50, 0, seed);
        pair(format!("capirca 50 seed {seed}"), cisco, juniper);
    }
    let (cisco, juniper) = university_core_pair();
    pair("university core".into(), cisco, juniper);
    let (cisco, juniper) = university_border_pair();
    pair("university border".into(), cisco, juniper);
    // The shape of an `acl-10k` benchmark pair.
    let (cisco, juniper) = capirca_acl_pair(10_000, 0, 1);
    pair("capirca 10k".into(), cisco, juniper);
    let opts = FuzzOptions::default();
    for case in 0..1000 {
        let fc = build_case(opts.seed, case, &opts);
        for (side, sc) in [("base", &fc.base), ("mutated", &fc.mutated())] {
            pair(
                format!("fuzz case {case} {side}"),
                render_cisco(sc).text,
                render_juniper(sc).text,
            );
        }
    }
    for (name, text) in fleet_input("fleet", 3, 50, 2, 7, Some(1)).configs {
        texts.push((format!("fleet {name}"), text));
    }
    let entries = |dir: &str| std::fs::read_dir(dir).expect("read testdata");
    let samples = entries("testdata")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cfg"));
    let fuzz_corpus = entries("testdata/fuzz-corpus").flat_map(|e| {
        let dir = e.expect("dir entry").path();
        ["cisco.cfg", "juniper.cfg"].map(|side| dir.join(side))
    });
    for path in samples.chain(fuzz_corpus) {
        let text = std::fs::read_to_string(&path).expect("read config");
        texts.push((path.display().to_string(), text));
    }
    let sets: Vec<(String, String)> = texts
        .iter()
        .filter(|(_, text)| vote(text) == Vendor::JuniperJunos)
        .map(|(label, text)| (format!("{label} | display set"), common::display_set(text)))
        .collect();
    texts.extend(sets);
    texts
}

#[test]
fn first_marked_line_agrees_with_the_vote() {
    let texts = corpus();
    let sets = texts
        .iter()
        .filter(|(label, _)| label.ends_with("display set"))
        .count();
    assert!(
        texts.len() > 6000 && sets > 2000,
        "{} texts, {sets} set renderings",
        texts.len()
    );
    for (label, text) in &texts {
        let vendor = detect_vendor(text);
        assert_eq!(vendor, vote(text), "{label}");
        // The parser the rule picks reads the whole text.
        let cfg = parse_config(text).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(cfg.vendor(), vendor, "{label}");
    }
}
