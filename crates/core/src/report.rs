//! Present: rendering differences in the paper's two-column table format
//! (Tables 2, 4 and 7).

use std::fmt;

use campion_bdd::ManagerStats;
use campion_cfg::Span;
use campion_net::PrefixRange;

/// Which router a structural finding concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingSide {
    /// Present only in the first router.
    OnlyFirst,
    /// Present only in the second router.
    OnlySecond,
    /// Present in both with differing attributes.
    Both,
}

/// One StructuralDiff finding, directly localized (§3.3).
#[derive(Debug, Clone)]
pub struct StructuralFinding {
    /// Component family ("Static Routes", "BGP Properties", ...).
    pub component: String,
    /// Pairing key (prefix, neighbor address, interface).
    pub key: String,
    /// Human-readable description.
    pub description: String,
    /// Value in the first router ("None" when absent).
    pub value1: String,
    /// Value in the second router.
    pub value2: String,
    /// Source span in the first configuration.
    pub span1: Option<Span>,
    /// Source span in the second configuration.
    pub span2: Option<Span>,
    /// Sidedness.
    pub side: FindingSide,
}

/// One SemanticDiff difference, header- and text-localized, ready for
/// display (the rows of Table 2 / Table 7).
#[derive(Debug, Clone)]
pub struct PolicyDiffReport {
    /// What was compared ("route map POL (export to 10.0.0.2)",
    /// "ACL VM_FILTER_1").
    pub context: String,
    /// Component name in each router.
    pub name1: String,
    /// See `name1`.
    pub name2: String,
    /// Included prefix ranges (header localization).
    pub included: Vec<PrefixRange>,
    /// Excluded prefix ranges.
    pub excluded: Vec<PrefixRange>,
    /// A concrete example for non-prefix fields (communities etc.),
    /// when relevant.
    pub example: Option<String>,
    /// Action in the first router.
    pub action1: String,
    /// Action in the second router.
    pub action2: String,
    /// Configuration text in the first router.
    pub text1: String,
    /// Configuration text in the second router.
    pub text2: String,
    /// Source spans of the fired clauses/rules in the first router —
    /// the structured form of `text1`, for machine consumers (the fuzz
    /// harness's localization oracle). Deliberately absent from `Display`.
    pub spans1: Vec<Span>,
    /// See `spans1`.
    pub spans2: Vec<Span>,
    /// True when the first side's behavior comes from the component's
    /// implicit default (no clause/rule fired), in which case `spans1` is
    /// empty.
    pub default1: bool,
    /// See `default1`.
    pub default2: bool,
}

/// The full output of comparing two routers.
#[derive(Debug, Clone, Default)]
pub struct CampionReport {
    /// First router's name.
    pub router1: String,
    /// Second router's name.
    pub router2: String,
    /// Semantic route-map differences.
    pub route_map_diffs: Vec<PolicyDiffReport>,
    /// Semantic ACL differences.
    pub acl_diffs: Vec<PolicyDiffReport>,
    /// Structural findings.
    pub structural: Vec<StructuralFinding>,
    /// Components that could not be paired (reported, as in §4).
    pub unmatched: Vec<String>,
    /// Aggregate BDD-engine counters across every semantic pair diffed for
    /// this report. Diagnostic only — deliberately absent from `Display`,
    /// so rendered reports stay identical across worker counts.
    pub bdd_stats: ManagerStats,
}

impl CampionReport {
    /// Total number of reported differences.
    pub fn total_differences(&self) -> usize {
        self.route_map_diffs.len() + self.acl_diffs.len() + self.structural.len()
    }

    /// True when the routers were found behaviorally equivalent.
    pub fn is_equivalent(&self) -> bool {
        self.total_differences() == 0 && self.unmatched.is_empty()
    }

    /// Render the aggregate BDD-engine counters, including the garbage
    /// collector's. Exposed behind the CLI's `--stats` flag rather than
    /// `Display` so default reports stay byte-identical across worker
    /// counts and GC modes.
    pub fn render_stats(&self) -> String {
        let s = &self.bdd_stats;
        let mut out = String::from("=== BDD engine statistics ===\n");
        let mut row = |label: &str, value: String| {
            out.push_str(&format!("{label:<24} {value}\n"));
        };
        row("live nodes", s.nodes.to_string());
        row("peak live nodes", s.peak_nodes.to_string());
        row("post-GC live nodes", s.post_gc_nodes.to_string());
        row("GC collections", s.gc_runs.to_string());
        row("GC nodes freed", s.gc_nodes_freed.to_string());
        row(
            "GC pause time",
            format!("{} \u{b5}s across {} pause(s)", s.gc_pause_us, s.gc_runs),
        );
        row("GC max pause", format!("{} \u{b5}s", s.gc_pause_max_us));
        row("unique-table grows", s.unique_grows.to_string());
        row(
            "unique hit rate",
            format!("{:.4} ({} lookups)", s.unique_hit_rate(), s.unique_lookups),
        );
        row(
            "apply hit rate",
            format!("{:.4} ({} lookups)", s.apply_hit_rate(), s.apply_lookups),
        );
        row(
            "rule-cache hit rate",
            format!(
                "{:.4} ({} lookups)",
                s.rule_cache_hit_rate(),
                s.rule_cache_lookups
            ),
        );
        row(
            "diff pairs examined",
            format!("{} ({} pruned)", s.pairs_examined, s.pairs_pruned),
        );
        row("diff early exits", s.early_exits.to_string());
        out
    }
}

/// Render a two-column table with a fixed label gutter, in the style of the
/// paper's tables.
fn two_column_table(
    f: &mut fmt::Formatter<'_>,
    header: (&str, &str),
    rows: &[(&str, String, String)],
) -> fmt::Result {
    const LABEL_W: usize = 18;
    const COL_W: usize = 34;
    let hline = format!(
        "+{}+{}+{}+",
        "-".repeat(LABEL_W + 2),
        "-".repeat(COL_W + 2),
        "-".repeat(COL_W + 2)
    );
    writeln!(f, "{hline}")?;
    writeln!(
        f,
        "| {:LABEL_W$} | {:COL_W$} | {:COL_W$} |",
        "", header.0, header.1
    )?;
    writeln!(f, "{hline}")?;
    for (label, v1, v2) in rows {
        let c1: Vec<&str> = if v1.is_empty() {
            vec![""]
        } else {
            v1.lines().collect()
        };
        let c2: Vec<&str> = if v2.is_empty() {
            vec![""]
        } else {
            v2.lines().collect()
        };
        let n = c1.len().max(c2.len());
        for i in 0..n {
            let l = if i == 0 { label } else { &"" };
            let a = c1.get(i).copied().unwrap_or("");
            let b = c2.get(i).copied().unwrap_or("");
            // Hard-wrap long lines so the table stays rectangular.
            let a = truncate_pad(a, COL_W);
            let b = truncate_pad(b, COL_W);
            writeln!(f, "| {l:LABEL_W$} | {a} | {b} |")?;
        }
        writeln!(f, "{hline}")?;
    }
    Ok(())
}

fn truncate_pad(s: &str, w: usize) -> String {
    let mut out: String = s.chars().take(w).collect();
    let pad = w.saturating_sub(out.chars().count());
    out.extend(std::iter::repeat_n(' ', pad));
    out
}

fn ranges_cell(rs: &[PrefixRange]) -> String {
    if rs.is_empty() {
        "(none)".to_string()
    } else {
        rs.iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for PolicyDiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.context)?;
        let mut rows: Vec<(&str, String, String)> = vec![(
            "Included Prefixes",
            ranges_cell(&self.included),
            String::new(),
        )];
        if !self.excluded.is_empty() {
            rows.push((
                "Excluded Prefixes",
                ranges_cell(&self.excluded),
                String::new(),
            ));
        }
        if let Some(e) = &self.example {
            rows.push(("Example", e.clone(), String::new()));
        }
        rows.push(("Policy Name", self.name1.clone(), self.name2.clone()));
        rows.push(("Action", self.action1.clone(), self.action2.clone()));
        rows.push(("Text", self.text1.clone(), self.text2.clone()));
        two_column_table(f, (&self.name1, &self.name2), &rows)
    }
}

impl fmt::Display for StructuralFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.component, self.description)?;
        let span = |s: &Option<Span>| match s {
            Some(sp) => format!(" ({sp})"),
            None => String::new(),
        };
        writeln!(f, "  router 1: {}{}", self.value1, span(&self.span1))?;
        writeln!(f, "  router 2: {}{}", self.value2, span(&self.span2))
    }
}

impl fmt::Display for CampionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== Campion: {} vs {} — {} difference(s) ===",
            self.router1,
            self.router2,
            self.total_differences()
        )?;
        if self.is_equivalent() {
            writeln!(f, "No behavioral differences found.")?;
            return Ok(());
        }
        if !self.route_map_diffs.is_empty() {
            writeln!(f, "\n--- Route map differences (SemanticDiff) ---")?;
            for (i, d) in self.route_map_diffs.iter().enumerate() {
                writeln!(f, "\nDifference {}:", i + 1)?;
                write!(f, "{d}")?;
            }
        }
        if !self.acl_diffs.is_empty() {
            writeln!(f, "\n--- ACL differences (SemanticDiff) ---")?;
            for (i, d) in self.acl_diffs.iter().enumerate() {
                writeln!(f, "\nDifference {}:", i + 1)?;
                write!(f, "{d}")?;
            }
        }
        if !self.structural.is_empty() {
            writeln!(f, "\n--- Structural differences (StructuralDiff) ---")?;
            for s in &self.structural {
                writeln!(f)?;
                write!(f, "{s}")?;
            }
        }
        if !self.unmatched.is_empty() {
            writeln!(f, "\n--- Unmatched components ---")?;
            for u in &self.unmatched {
                writeln!(f, "  {u}")?;
            }
        }
        Ok(())
    }
}
