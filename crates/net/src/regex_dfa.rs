//! Language-level decisions for the regex engine: subset construction and
//! product emptiness checks.
//!
//! The symbolic layer models each community regex with an *unknown-match*
//! atom ("carries some community outside the literal universe matching this
//! pattern"). Treating those atoms as independent overapproximates: two
//! overlapping regexes would always be flagged as potentially different.
//! This module decides, once per compared pair,
//!
//! * [`language_subset_except`]: `L(a) ⊆ L(b) ∪ lits` — when it holds, any
//!   unknown community matching `a` also matches `b`, so the atoms gain an
//!   implication constraint; and
//! * [`matches_beyond`]: `L(a) ⊈ lits` — when it fails, the unknown atom is
//!   unsatisfiable and pinned to false.
//!
//! Semantics mirror router behavior ([`Regex::is_match`]'s find-semantics):
//! a string is in the language when the pattern matches anywhere inside it.
//! The construction works on the compiled NFA: a DFA state is the set of
//! live program counters (plus a sticky "already matched" marker for
//! unanchored acceptance), stepped per concrete character over the
//! printable-ASCII alphabet that community strings inhabit.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::regex::Regex;

/// The explored alphabet: printable ASCII. Community strings only use
/// digits and `:`, but regexes may mention any printable character.
fn alphabet() -> impl Iterator<Item = char> {
    (0x20u8..0x7f).map(|b| b as char)
}

/// A determinized view of a compiled regex under find-semantics.
/// `usize::MAX` in a state set is the sticky accept marker.
#[derive(Debug)]
pub(crate) struct SearchDfa<'r> {
    re: &'r Regex,
}

/// One DFA state: the set of live NFA positions.
pub(crate) type State = BTreeSet<usize>;

const MATCHED: usize = usize::MAX;

impl<'r> SearchDfa<'r> {
    pub(crate) fn new(re: &'r Regex) -> Self {
        SearchDfa { re }
    }

    /// The start state: closure of pc 0 at string start.
    pub(crate) fn start(&self) -> State {
        let mut s = State::new();
        self.re.closure_into(&mut s, 0, true, false);
        if self.re.state_accepts(&s, false) {
            s.insert(MATCHED);
        }
        s
    }

    /// Step the state over one character. Injects a fresh attempt at the
    /// new position (unanchored search restarts at every offset).
    pub(crate) fn step(&self, state: &State, c: char) -> State {
        let mut next = State::new();
        if state.contains(&MATCHED) {
            next.insert(MATCHED);
        }
        for &pc in state {
            if pc == MATCHED {
                continue;
            }
            if self.re.char_step(pc, c) {
                self.re.closure_into(&mut next, pc + 1, false, false);
            }
        }
        // Fresh attempt starting after this character.
        self.re.closure_into(&mut next, 0, false, false);
        if self.re.state_accepts(&next, false) {
            next.insert(MATCHED);
        }
        next
    }

    /// Does the DFA accept when the input ends in this state?
    pub(crate) fn accepts_at_end(&self, state: &State) -> bool {
        state.contains(&MATCHED) || self.re.state_accepts(state, true)
    }
}

/// A trie DFA over a finite string set (the literal communities).
#[derive(Debug, Default)]
struct Trie {
    /// `nodes[i]` maps a character to the next node.
    nodes: Vec<HashMap<char, usize>>,
    accepting: Vec<bool>,
}

impl Trie {
    fn new(strings: &[String]) -> Self {
        let mut t = Trie {
            nodes: vec![HashMap::new()],
            accepting: vec![false],
        };
        for s in strings {
            let mut cur = 0;
            for c in s.chars() {
                cur = match t.nodes[cur].get(&c) {
                    Some(&n) => n,
                    None => {
                        t.nodes.push(HashMap::new());
                        t.accepting.push(false);
                        let n = t.nodes.len() - 1;
                        t.nodes[cur].insert(c, n);
                        n
                    }
                };
            }
            t.accepting[cur] = true;
        }
        t
    }

    /// Step; `None` is the dead state.
    fn step(&self, state: Option<usize>, c: char) -> Option<usize> {
        self.nodes.get(state?)?.get(&c).copied()
    }

    fn accepts(&self, state: Option<usize>) -> bool {
        state.is_some_and(|s| self.accepting[s])
    }
}

/// Is `L(a) ⊆ L(b) ∪ lits`? (Both languages under find-semantics.)
///
/// Decides by BFS over the product of the two search DFAs and the literal
/// trie, looking for a string accepted by `a`, rejected by `b`, and not a
/// literal. The search is bounded by the product's state space, which is
/// finite; community patterns yield tiny automata.
pub fn language_subset_except(a: &Regex, b: &Regex, lits: &[String]) -> bool {
    let da = SearchDfa::new(a);
    let db = SearchDfa::new(b);
    let trie = Trie::new(lits);
    let start = (da.start(), db.start(), Some(0usize));
    let mut seen: BTreeSet<(State, State, Option<usize>)> = BTreeSet::new();
    let mut queue: VecDeque<(State, State, Option<usize>)> = VecDeque::new();
    seen.insert(start.clone());
    queue.push_back(start);
    while let Some((sa, sb, st)) = queue.pop_front() {
        if da.accepts_at_end(&sa) && !db.accepts_at_end(&sb) && !trie.accepts(st) {
            return false; // counterexample string reaches this state
        }
        for c in alphabet() {
            let na = da.step(&sa, c);
            let nb = db.step(&sb, c);
            let nt = trie.step(st, c);
            let key = (na, nb, nt);
            if seen.insert(key.clone()) {
                queue.push_back(key);
            }
        }
    }
    true
}

/// Is `L(a) ⊆ lits`? I.e. can the regex match anything beyond the given
/// literal strings? Returns `true` when some non-literal string matches.
pub fn matches_beyond(a: &Regex, lits: &[String]) -> bool {
    // L(a) ⊆ lits ⇔ L(a) ⊆ ∅ ∪ lits; reuse the product with an
    // empty-language "b": `x^x` requires a start-of-input after consuming a
    // character, which no string satisfies.
    let empty = Regex::new("x^x").expect("valid pattern");
    !language_subset_except(a, &empty, lits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap()
    }

    #[test]
    fn subset_basic() {
        assert!(language_subset_except(&re("^10:10$"), &re("^10:1.$"), &[]));
        assert!(!language_subset_except(&re("^10:1.$"), &re("^10:10$"), &[]));
        assert!(language_subset_except(&re("^65000:1$"), &re("65000"), &[]));
    }

    #[test]
    fn subset_with_find_semantics() {
        // Unanchored `0:1` matches a superset of `^10:10$` matches? Every
        // string matching ^10:10$ (exactly "10:10") contains "0:1".
        assert!(language_subset_except(&re("^10:10$"), &re("0:1"), &[]));
        assert!(!language_subset_except(&re("0:1"), &re("^10:10$"), &[]));
    }

    #[test]
    fn subset_modulo_literals() {
        // ^10:1[01]$ ⊆ ^10:10$ ∪ {"10:11"}.
        assert!(language_subset_except(
            &re("^10:1[01]$"),
            &re("^10:10$"),
            &["10:11".to_string()]
        ));
        assert!(!language_subset_except(
            &re("^10:1[012]$"),
            &re("^10:10$"),
            &["10:11".to_string()]
        ));
    }

    #[test]
    fn equality() {
        let subset = |a: &str, b: &str| language_subset_except(&re(a), &re(b), &[]);
        for (a, b) in [("^(10|20):5$", "^(20|10):5$"), ("^a+$", "^aa*$")] {
            assert!(subset(a, b) && subset(b, a), "{a} vs {b}");
        }
        assert!(subset("^a+$", "^a*$"));
        assert!(!subset("^a*$", "^a+$"));
    }

    #[test]
    fn matches_beyond_literals() {
        assert!(
            !matches_beyond(&re("^10:10$"), &["10:10".to_string()]),
            "finite language covered by the literal"
        );
        assert!(matches_beyond(&re("^10:1.$"), &["10:10".to_string()]));
        assert!(matches_beyond(&re("^10:10*$"), &["10:10".to_string()]));
        assert!(!matches_beyond(
            &re("^10:(10|11)$"),
            &["10:10".to_string(), "10:11".to_string()]
        ));
    }

    #[test]
    fn underscore_delimiter_in_language_checks() {
        // `_65000:` under find-semantics: matches strings where 65000: is
        // at start or after a delimiter.
        assert!(language_subset_except(
            &re("^65000:1$"),
            &re("_65000:"),
            &[]
        ));
        assert!(!language_subset_except(
            &re("_65000:"),
            &re("^65000:1$"),
            &[]
        ));
    }
}
