//! Vendor detection and the unified parse entry point.

use crate::cisco::{parse_cisco, CiscoConfig};
use crate::error::ParseError;
use crate::juniper::{parse_juniper, parse_juniper_set, JuniperConfig};
use crate::span::Vendor;

/// A parsed configuration in either supported vendor format.
#[derive(Debug, Clone)]
pub enum VendorConfig {
    /// Cisco IOS.
    Cisco(CiscoConfig),
    /// Juniper JunOS.
    Juniper(JuniperConfig),
}

impl VendorConfig {
    /// The vendor of this configuration.
    pub fn vendor(&self) -> Vendor {
        match self {
            VendorConfig::Cisco(_) => Vendor::CiscoIos,
            VendorConfig::Juniper(_) => Vendor::JuniperJunos,
        }
    }

    /// The configured hostname (empty when absent).
    pub fn hostname(&self) -> &str {
        match self {
            VendorConfig::Cisco(c) => &c.hostname,
            VendorConfig::Juniper(j) => &j.hostname,
        }
    }
}

/// The syntax a configuration is written in: which parser reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Syntax {
    /// Cisco IOS command lines.
    Cisco,
    /// Hierarchical JunOS braces.
    Braces,
    /// JunOS `| display set` output, one `set` command per line.
    Set,
}

/// The syntax of `text`, as its first marked line says; a text with no
/// marked line is Cisco. The Cisco words are asked before the JunOS line
/// ends, so that a line marked both ways reads as Cisco.
fn syntax(text: &str) -> Syntax {
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with(['!', '#']) {
            continue;
        }
        if t.starts_with("set ") {
            return Syntax::Set;
        }
        match t.split_whitespace().next() {
            Some("route-map" | "access-list" | "hostname" | "ip" | "router" | "interface") => {
                return Syntax::Cisco
            }
            Some(
                "policy-options" | "policy-statement" | "routing-options" | "protocols"
                | "firewall" | "system",
            ) => return Syntax::Braces,
            _ => {}
        }
        if t.ends_with(['{', ';']) || t == "}" {
            return Syntax::Braces;
        }
    }
    Syntax::Cisco
}

/// Guess the vendor of a configuration from its syntax.
///
/// JunOS configs are brace-structured or `set` commands; IOS configs are
/// flat command lines. The first line that carries a marker of either
/// style decides, so a text is read only as far as that line.
pub fn detect_vendor(text: &str) -> Vendor {
    match syntax(text) {
        Syntax::Cisco => Vendor::CiscoIos,
        Syntax::Braces | Syntax::Set => Vendor::JuniperJunos,
    }
}

/// Parse a configuration, auto-detecting the vendor.
///
/// The detected syntax picks one parser and nothing else reads the text
/// first. A text whose first marked line is a `set` command goes to the
/// set-style fold, which fails at the first line that is not one.
pub fn parse_config(text: &str) -> Result<VendorConfig, ParseError> {
    campion_trace::span!("cfg.parse");
    let syntax = {
        campion_trace::span!("cfg.detect");
        syntax(text)
    };
    match syntax {
        Syntax::Cisco => parse_cisco(text).map(VendorConfig::Cisco),
        Syntax::Braces => parse_juniper(text).map(VendorConfig::Juniper),
        Syntax::Set => parse_juniper_set(text).map(VendorConfig::Juniper),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_cisco() {
        let text = "hostname r1\nip route 10.0.0.0 255.0.0.0 10.1.1.1\nroute-map X permit 10\n";
        assert_eq!(detect_vendor(text), Vendor::CiscoIos);
        assert!(matches!(parse_config(text), Ok(VendorConfig::Cisco(_))));
    }

    #[test]
    fn detects_juniper() {
        let text =
            "system { host-name r2; }\npolicy-options {\n  prefix-list P { 10.0.0.0/8; }\n}\n";
        assert_eq!(detect_vendor(text), Vendor::JuniperJunos);
        let cfg = parse_config(text).unwrap();
        assert_eq!(cfg.vendor(), Vendor::JuniperJunos);
        assert_eq!(cfg.hostname(), "r2");
    }

    /// Set style after a `#` comment line.
    #[test]
    fn detects_set_style_juniper() {
        let text = "\
# | display set output
set firewall family inet filter F term t1 from source-address 10.0.0.0/8
set firewall family inet filter F term t1 then accept
set firewall family inet filter F term t2 then discard
";
        assert_eq!(syntax(text), Syntax::Set);
        assert_eq!(detect_vendor(text), Vendor::JuniperJunos);
        let cfg = parse_config(text).unwrap();
        let VendorConfig::Juniper(j) = cfg else {
            panic!("set-style text parsed as Cisco");
        };
        assert_eq!(j.filters["F"].terms.len(), 2);
    }

    #[test]
    fn figure1_pair_detects_correctly() {
        assert_eq!(
            detect_vendor(crate::samples::FIGURE1_CISCO),
            Vendor::CiscoIos
        );
        assert_eq!(
            detect_vendor(crate::samples::FIGURE1_JUNIPER),
            Vendor::JuniperJunos
        );
    }

    #[test]
    fn blank_and_comment_lines_do_not_decide() {
        // `!` and `#` lines would be JunOS lines by their ends alone.
        let lead = "\n   \n!\n! banner;\n# policy-options {\n#\n";
        assert_eq!(syntax(&format!("{lead}hostname r1\n")), Syntax::Cisco);
        assert_eq!(syntax(&format!("{lead}system {{\n}}\n")), Syntax::Braces);
        assert_eq!(
            syntax(&format!("{lead}set system host-name r\n")),
            Syntax::Set
        );
        assert_eq!(syntax(lead), Syntax::Cisco);
    }

    #[test]
    fn a_version_statement_marks_braces() {
        let text = "version 20.4R1;\nsystem {\n    host-name r;\n}\n";
        assert_eq!(syntax(text), Syntax::Braces);
        assert_eq!(parse_config(text).unwrap().hostname(), "r");
    }

    #[test]
    fn a_one_line_stanza_marks_braces() {
        // It ends in `}`, not in a lone one: its first word decides.
        assert_eq!(syntax("system { host-name r; }"), Syntax::Braces);
        assert_eq!(
            parse_config("system { host-name r; }").unwrap().hostname(),
            "r"
        );
    }

    #[test]
    fn unmarked_cisco_lines_before_hostname() {
        let text = "version 15.2\nservice timestamps debug uptime\nservice password-encryption\nhostname r1\n";
        assert_eq!(syntax(text), Syntax::Cisco);
        assert_eq!(parse_config(text).unwrap().hostname(), "r1");
    }

    #[test]
    fn a_line_marked_both_ways_reads_as_cisco() {
        assert_eq!(syntax("interface ge-0/0/0;\n"), Syntax::Cisco);
    }

    #[test]
    fn an_empty_text_is_cisco() {
        assert_eq!(syntax(""), Syntax::Cisco);
        assert_eq!(detect_vendor(""), Vendor::CiscoIos);
        assert!(matches!(parse_config(""), Ok(VendorConfig::Cisco(_))));
    }

    #[test]
    fn set_first_then_braces_fails_at_the_first_other_line() {
        let text = "set system host-name r\npolicy-options {\n}\n";
        assert_eq!(syntax(text), Syntax::Set);
        let err = parse_config(text).unwrap_err();
        assert_eq!(err.line, 2);
    }
}
