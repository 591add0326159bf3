//! Helpers shared by the integration tests.

use campion::cfg::juniper::tree::{parse_tree, Stmt};

/// Render brace-form JunOS as the `set` commands `| display set` prints:
/// one line per leaf, prefixed by the words of its enclosing stanzas.
pub fn display_set(text: &str) -> String {
    fn walk<'t>(stmts: impl Iterator<Item = Stmt<'t>>, path: &mut Vec<String>, out: &mut String) {
        for s in stmts {
            let depth = path.len();
            path.extend(s.words().iter().map(|w| {
                if w.contains(char::is_whitespace) {
                    format!("\"{w}\"")
                } else {
                    w.to_string()
                }
            }));
            if s.is_leaf() {
                out.push_str("set ");
                out.push_str(&path.join(" "));
                out.push('\n');
            } else {
                walk(s.children(), path, out);
            }
            path.truncate(depth);
        }
    }
    let mut out = String::new();
    walk(
        parse_tree(text).expect("brace form parses").roots(),
        &mut Vec::new(),
        &mut out,
    );
    out
}
