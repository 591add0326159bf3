//! Vendor detection and the unified parse entry point.

use crate::cisco::{parse_cisco, CiscoConfig};
use crate::error::ParseError;
use crate::juniper::setstyle::looks_like_set_style;
use crate::juniper::{parse_juniper, JuniperConfig};
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

/// Guess the vendor of a configuration from its syntax.
///
/// JunOS configs are brace-structured; IOS configs are flat command lines.
/// The heuristic counts unambiguous markers of each style and is reliable
/// for any non-trivial config. Text in which every command is a `set`
/// line is JunOS `| display set` output, whatever the markers say.
pub fn detect_vendor(text: &str) -> Vendor {
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

/// Parse a configuration, auto-detecting the vendor.
pub fn parse_config(text: &str) -> Result<VendorConfig, ParseError> {
    campion_trace::span!("cfg.parse");
    let vendor = {
        campion_trace::span!("cfg.detect");
        detect_vendor(text)
    };
    match vendor {
        Vendor::CiscoIos => parse_cisco(text).map(VendorConfig::Cisco),
        Vendor::JuniperJunos => parse_juniper(text).map(VendorConfig::Juniper),
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

    #[test]
    fn detects_set_style_juniper() {
        let text = "\
# | display set output
set firewall family inet filter F term t1 from source-address 10.0.0.0/8
set firewall family inet filter F term t1 then accept
set firewall family inet filter F term t2 then discard
";
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
}
