//! `set`-style (flattened) JunOS input.
//!
//! `show configuration | display set` prints one `set` command per line;
//! operators frequently exchange configs in this form. This module folds
//! such lines back into the statement tree the extraction layer consumes.
//!
//! Reconstruction needs to know, for each keyword, how many tokens after it
//! belong to the *statement head* (its arguments) before nesting resumes —
//! e.g. `policy-statement POL` consumes one name, `term t1` one name,
//! `from community COMM` is a leaf whose words all stay together. The
//! schema below covers the grammar subset the typed extractor understands;
//! unknown keywords terminate nesting and keep the remaining tokens as one
//! leaf statement, which matches how the extractor treats unmodeled leaves.

use std::collections::HashMap;

use crate::error::ParseError;
use crate::span::Span;

use super::tree::{check_size, index, Entry, Tree};

/// Containers that take `n` name arguments (at most one) and then nest
/// further.
fn container_arity(keyword: &str) -> Option<usize> {
    Some(match keyword {
        "system" | "policy-options" | "routing-options" | "protocols" | "firewall"
        | "interfaces" | "static" | "bgp" | "ospf" => 0,
        "policy-statement" | "term" | "prefix-list" | "group" | "area" | "filter" | "unit"
        | "route" | "neighbor" | "interface" => 1,
        "family" => 1, // family inet { ... }
        "from" | "then" => 0,
        _ => return None,
    })
}

/// Does this token start an interfaces stanza body (the interface name
/// itself is the container)?
fn is_leaf_keyword(keyword: &str) -> bool {
    matches!(
        keyword,
        "host-name"
            | "autonomous-system"
            | "router-id"
            | "import"
            | "export"
            | "peer-as"
            | "cluster"
            | "type"
            | "members"
            | "community"
            | "route-filter"
            | "prefix-list-filter"
            | "local-preference"
            | "metric"
            | "accept"
            | "reject"
            | "next-hop"
            | "next"
            | "tag"
            | "preference"
            | "discard"
            | "source-address"
            | "destination-address"
            | "protocol"
            | "source-port"
            | "destination-port"
            | "address"
            | "disable"
            | "description"
            | "passive"
            | "reference-bandwidth"
    )
}

/// Convert `set`-style lines into a statement tree whose words borrow
/// from `text`. Blank lines and `#` comments are skipped; any other line
/// that is not a `set` command is an error.
pub fn parse_set_style(text: &str) -> Result<Tree<'_>, ParseError> {
    check_size(text)?;
    let mut fold = Fold::default();
    let mut tokens = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i as u32 + 1;
        let t = raw.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let Some(rest) = t.strip_prefix("set ") else {
            return Err(ParseError::at(line_no, "expected a `set` command"));
        };
        tokenize(rest, line_no, &mut tokens)?;
        fold.insert_path(&tokens, line_no);
    }
    Ok(fold.finish())
}

/// Split on whitespace into `out`, honoring quoted strings and `[ ... ]`
/// groups (bracket contents flatten, like the brace parser does).
fn tokenize<'a>(rest: &'a str, line: u32, out: &mut Vec<&'a str>) -> Result<(), ParseError> {
    out.clear();
    // Blanks and brackets only separate words.
    const SEPARATORS: [char; 4] = [' ', '\t', '[', ']'];
    let mut rest = rest.trim_start_matches(SEPARATORS);
    while let Some(c) = rest.chars().next() {
        let end = if let Some(quoted) = rest.strip_prefix('"') {
            let close = quoted
                .find('"')
                .ok_or_else(|| ParseError::at(line, "unterminated string"))?;
            out.push(&quoted[..close]);
            close + 2
        } else {
            // A bare word keeps its first character whatever it is, then
            // runs to whitespace, a bracket or a quote.
            let first = c.len_utf8();
            let end = rest[first..]
                .find(|ch: char| ch.is_whitespace() || matches!(ch, '[' | ']' | '"'))
                .map_or(rest.len(), |e| first + e);
            out.push(&rest[..end]);
            end
        };
        rest = rest[end..].trim_start_matches(SEPARATORS);
    }
    if out.is_empty() {
        return Err(ParseError::at(line, "empty set command"));
    }
    Ok(())
}

/// A container's identity among its siblings: its parent (see
/// [`Fold::stmts`]), then its head words (a keyword and at most one name,
/// see [`container_arity`]).
type ContainerKey<'a> = (u32, &'a str, Option<&'a str>);

/// The tree under construction, with an index of its containers.
///
/// Finding the container a `set` line continues is a hash lookup rather
/// than a scan of its siblings, so folding a flattened config stays
/// linear in its size. The index exists only while folding: [`Fold::finish`]
/// lays the statements out as a plain [`Tree`], children in order.
#[derive(Default)]
struct Fold<'a> {
    words: Vec<&'a str>,
    /// Every statement in creation order, with its parent: 0 for a root,
    /// `k + 1` for the statement at `k`.
    stmts: Vec<(Entry, u32)>,
    /// Each container's position in `stmts`.
    containers: HashMap<ContainerKey<'a>, u32>,
}

impl<'a> Fold<'a> {
    /// Walk the token path, descending through known containers and
    /// attaching the remainder as one leaf statement.
    fn insert_path(&mut self, tokens: &[&'a str], line: u32) {
        let mut parent = 0;
        let mut idx = 0;
        while idx < tokens.len() {
            let kw = tokens[idx];
            if is_leaf_keyword(kw) {
                break;
            }
            match container_arity(kw) {
                Some(arity) if idx + arity < tokens.len() => {
                    parent = self.descend(parent, &tokens[idx..=idx + arity], line);
                    idx += arity + 1;
                    // Inside `interfaces`, the next token is the interface
                    // name (a container with no keyword of its own).
                    if kw == "interfaces" && idx < tokens.len() {
                        parent = self.descend(parent, &tokens[idx..=idx], line);
                        idx += 1;
                    }
                }
                _ => break,
            }
        }
        if idx < tokens.len() {
            push(
                &mut self.words,
                &mut self.stmts,
                parent,
                &tokens[idx..],
                line,
            );
        }
    }

    /// Find or create the child container of `parent` whose words are
    /// `head`, stretch its span over `line`, and return it as a parent.
    fn descend(&mut self, parent: u32, head: &[&'a str], line: u32) -> u32 {
        debug_assert!(
            head.len() <= 2,
            "container heads are a keyword and at most one name"
        );
        let Fold {
            words,
            stmts,
            containers,
        } = self;
        let pos = *containers
            .entry((parent, head[0], head.get(1).copied()))
            .or_insert_with(|| push(words, stmts, parent, head, line));
        // Containers created by earlier lines keep their original span
        // start; extend the end to cover this line.
        let span = &mut stmts[pos as usize].0.span;
        *span = span.merge(Span::line(line));
        pos + 1
    }

    /// Lay the statements out as a [`Tree`]: a counting sort by parent,
    /// stable in creation order, makes each statement's children one
    /// contiguous run, in the order the lines introduced them.
    fn finish(self) -> Tree<'a> {
        let n = self.stmts.len();
        // `first[p]` is where parent `p`'s children start; `first[p + 1]`,
        // where they end.
        let mut first = vec![0; n + 2];
        for &(_, parent) in &self.stmts {
            first[parent as usize + 1] += 1;
        }
        for p in 1..first.len() {
            first[p] += first[p - 1];
        }
        let mut next = first[..=n].to_vec();
        let mut entries = vec![Entry::default(); n];
        for (k, &(entry, parent)) in self.stmts.iter().enumerate() {
            let at = &mut next[parent as usize];
            entries[*at as usize] = Entry {
                children: [first[k + 1], first[k + 2]],
                ..entry
            };
            *at += 1;
        }
        Tree {
            words: self.words,
            entries,
            roots: [first[0], first[1]],
        }
    }
}

/// Append a statement of `words` under `parent` and return its position.
fn push<'a>(
    words: &mut Vec<&'a str>,
    stmts: &mut Vec<(Entry, u32)>,
    parent: u32,
    stmt_words: &[&'a str],
    line: u32,
) -> u32 {
    let start = index(words.len());
    words.extend_from_slice(stmt_words);
    stmts.push((
        Entry {
            words: [start, index(words.len())],
            children: [0, 0],
            span: Span::line(line),
        },
        parent,
    ));
    index(stmts.len() - 1)
}

/// The owned-token, sibling-scanning fold this module replaced, kept as a
/// differential oracle.
#[cfg(test)]
mod oracle {
    use super::{container_arity, is_leaf_keyword};
    use crate::error::ParseError;
    use crate::juniper::tree::oracle::OwnedStmt;
    use crate::span::Span;

    pub fn parse_set_style(text: &str) -> Result<Vec<OwnedStmt>, ParseError> {
        let mut roots: Vec<OwnedStmt> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i as u32 + 1;
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let Some(rest) = t.strip_prefix("set ") else {
                return Err(ParseError::at(line_no, "expected a `set` command"));
            };
            let tokens = tokenize(rest, line_no)?;
            insert_path(&mut roots, &tokens, line_no);
        }
        Ok(roots)
    }

    fn tokenize(rest: &str, line: u32) -> Result<Vec<String>, ParseError> {
        let mut out = Vec::new();
        let mut chars = rest.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                ' ' | '\t' | '[' | ']' => {}
                '"' => {
                    let mut s = String::new();
                    loop {
                        match chars.next() {
                            Some('"') => break,
                            Some(ch) => s.push(ch),
                            None => return Err(ParseError::at(line, "unterminated string")),
                        }
                    }
                    out.push(s);
                }
                _ => {
                    let mut s = String::new();
                    s.push(c);
                    while let Some(&ch) = chars.peek() {
                        if ch.is_whitespace() || ch == '[' || ch == ']' || ch == '"' {
                            break;
                        }
                        s.push(ch);
                        chars.next();
                    }
                    out.push(s);
                }
            }
        }
        if out.is_empty() {
            return Err(ParseError::at(line, "empty set command"));
        }
        Ok(out)
    }

    fn insert_path(roots: &mut Vec<OwnedStmt>, tokens: &[String], line: u32) {
        let mut idx = 0;
        fn descend<'a>(
            level: &'a mut Vec<OwnedStmt>,
            head: &[String],
            line: u32,
        ) -> &'a mut Vec<OwnedStmt> {
            let pos = match level.iter().position(|s| s.words == head) {
                Some(p) => p,
                None => {
                    level.push(OwnedStmt {
                        words: head.to_vec(),
                        children: Vec::new(),
                        span: Span::line(line),
                    });
                    level.len() - 1
                }
            };
            level[pos].span = level[pos].span.merge(Span::line(line));
            &mut level[pos].children
        }
        let mut current: &mut Vec<OwnedStmt> = roots;
        while idx < tokens.len() {
            let kw = tokens[idx].as_str();
            if is_leaf_keyword(kw) {
                break;
            }
            match container_arity(kw) {
                Some(arity) if idx + arity < tokens.len() => {
                    let head = &tokens[idx..=idx + arity];
                    current = descend(current, head, line);
                    idx += arity + 1;
                    if kw == "interfaces" && idx < tokens.len() {
                        let name = &tokens[idx..=idx];
                        current = descend(current, name, line);
                        idx += 1;
                    }
                }
                _ => break,
            }
        }
        if idx < tokens.len() {
            current.push(OwnedStmt {
                words: tokens[idx..].to_vec(),
                children: Vec::new(),
                span: Span::line(line),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::juniper::tree::oracle::owned;
    use crate::juniper::{parse_juniper, parse_juniper_set};
    use proptest::prelude::*;

    /// Words for random `set` commands: containers, leaves, names that
    /// repeat (so lines share containers), quotes and brackets.
    const SET_WORDS: &[&str] = &[
        "policy-options",
        "policy-statement",
        "term",
        "from",
        "then",
        "firewall",
        "family",
        "inet",
        "filter",
        "interfaces",
        "unit",
        "protocols",
        "bgp",
        "group",
        "neighbor",
        "community",
        "members",
        "accept",
        "route-filter",
        "address",
        "P",
        "t1",
        "t2",
        "0",
        "ge-0/0/0",
        "10.0.0.0/8",
        "\"",
        "\"a b\"",
        "[",
        "]",
        "\t",
        "\u{b}",
    ];

    fn set_lines() -> impl Strategy<Value = String> {
        let line = proptest::collection::vec(proptest::sample::select(SET_WORDS), 0..9)
            .prop_map(|ws| format!("set {}", ws.join(" ")));
        proptest::collection::vec(line, 0..40).prop_map(|ls| ls.join("\n"))
    }

    proptest! {
        // At least 256 cases; honor a larger PROPTEST_CASES from the
        // environment.
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        /// The indexed fold builds the sibling-scanning fold's tree, or
        /// fails with its error.
        #[test]
        fn indexed_fold_matches_oracle(text in set_lines()) {
            let got = parse_set_style(&text).map(|t| owned(&t));
            prop_assert_eq!(got, oracle::parse_set_style(&text), "input {:?}", text);
        }
    }

    const SET_STYLE: &str = "\
set system host-name core-set
set policy-options prefix-list NETS 10.9.0.0/16
set policy-options prefix-list NETS 10.100.0.0/16
set policy-options community COMM members [ 10:10 10:11 ]
set policy-options policy-statement POL term rule1 from prefix-list NETS
set policy-options policy-statement POL term rule1 then reject
set policy-options policy-statement POL term rule2 from community COMM
set policy-options policy-statement POL term rule2 then reject
set policy-options policy-statement POL term rule3 then local-preference 30
set policy-options policy-statement POL term rule3 then accept
set routing-options autonomous-system 65100
set routing-options static route 10.1.1.2/31 next-hop 10.2.2.2
set protocols bgp group ibgp type internal
set protocols bgp group ibgp neighbor 10.0.101.2 export POL
set interfaces ge-0/0/0 unit 0 family inet address 10.0.1.2/24
";

    #[test]
    fn set_style_parses_like_braces() {
        let cfg = parse_juniper_set(SET_STYLE).expect("set-style parses");
        assert_eq!(cfg.hostname, "core-set");
        assert_eq!(cfg.prefix_lists["NETS"].prefixes.len(), 2);
        let comm = &cfg.communities["COMM"];
        assert_eq!(comm.members.len(), 2);
        let pol = &cfg.policies["POL"];
        assert_eq!(pol.terms.len(), 3);
        assert_eq!(pol.terms[2].then.len(), 2);
        assert_eq!(cfg.static_routes.len(), 1);
        assert_eq!(
            cfg.static_routes[0].next_hop.unwrap().to_string(),
            "10.2.2.2"
        );
        let bgp = cfg.bgp.expect("bgp parsed");
        let n = &bgp.groups["ibgp"].neighbors[&"10.0.101.2".parse().expect("addr")];
        assert_eq!(n.export, vec!["POL"]);
        let iface = &cfg.interfaces["ge-0/0/0"];
        assert_eq!(
            iface.units[&0].address.expect("addr").1.to_string(),
            "10.0.1.0/24"
        );
    }

    #[test]
    fn set_style_equivalent_to_brace_style() {
        use crate::samples::FIGURE1_JUNIPER;
        let braces = parse_juniper(FIGURE1_JUNIPER).expect("braces parse");
        let set_text = "\
set policy-options prefix-list NETS 10.9.0.0/16
set policy-options prefix-list NETS 10.100.0.0/16
set policy-options community COMM members [ 10:10 10:11 ]
set policy-options policy-statement POL term rule1 from prefix-list NETS
set policy-options policy-statement POL term rule1 then reject
set policy-options policy-statement POL term rule2 from community COMM
set policy-options policy-statement POL term rule2 then reject
set policy-options policy-statement POL term rule3 then local-preference 30
set policy-options policy-statement POL term rule3 then accept
";
        let set = parse_juniper_set(set_text).expect("set-style parses");
        assert_eq!(
            braces.prefix_lists["NETS"].prefixes.len(),
            set.prefix_lists["NETS"].prefixes.len()
        );
        assert_eq!(
            braces.communities["COMM"].members,
            set.communities["COMM"].members
        );
        assert_eq!(
            braces.policies["POL"].terms.len(),
            set.policies["POL"].terms.len()
        );
        for (a, b) in braces.policies["POL"]
            .terms
            .iter()
            .zip(&set.policies["POL"].terms)
        {
            assert_eq!(a.from, b.from);
            assert_eq!(a.then, b.then);
        }
    }

    #[test]
    fn bad_set_lines_error() {
        assert!(parse_set_style("set \"unterminated\n").is_err());
        assert!(parse_set_style("set\n").is_err());
    }
}
