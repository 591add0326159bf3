//! The generic JunOS statement tree.
//!
//! Grammar (whitespace-separated tokens; `#` and `/* */` comments ignored):
//!
//! ```text
//! config    := statement*
//! statement := words ';'            (leaf)
//!            | words '{' config '}' (stanza)
//! words     := (WORD | '[' WORD* ']')+
//! ```
//!
//! Bracketed lists are flattened into the word sequence (the extraction
//! layer knows the arity of each keyword), so
//! `members [ 10:10 10:11 ];` yields the words `members 10:10 10:11`.
//!
//! The lexer streams: the parser pulls one token at a time, and every word
//! is a slice of the input. Building the tree allocates only each
//! statement's word and child vectors.

use crate::error::ParseError;
use crate::span::Span;

/// One statement in the tree: its words, its children (empty for leaves)
/// and the source span it covers (including the closing brace).
///
/// Words are slices of the parsed text: building the tree copies no
/// token, and the typed extraction copies only the names it keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt<'a> {
    /// The statement's tokens, with bracket groups flattened.
    pub words: Vec<&'a str>,
    /// Child statements for `{ ... }` stanzas.
    pub children: Vec<Stmt<'a>>,
    /// Lines covered by the whole statement.
    pub span: Span,
}

impl<'a> Stmt<'a> {
    /// True when the statement has no children (ends with `;`).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// First word, if any.
    pub fn keyword(&self) -> Option<&'a str> {
        self.words.first().copied()
    }

    /// Children whose first word equals `kw`.
    pub fn find_all<'s>(&'s self, kw: &'s str) -> impl Iterator<Item = &'s Stmt<'a>> + 's {
        self.children
            .iter()
            .filter(move |c| c.keyword() == Some(kw))
    }

    /// The unique child starting with `kw`, if present.
    pub fn find(&self, kw: &str) -> Option<&Stmt<'a>> {
        self.children.iter().find(|c| c.keyword() == Some(kw))
    }

    /// Words after the keyword.
    pub fn args(&self) -> &[&'a str] {
        self.words.get(1..).unwrap_or_default()
    }
}

#[derive(Debug, Clone, Copy)]
enum Tok<'a> {
    Word(&'a str),
    LBrace,
    RBrace,
    Semi,
    LBracket,
    RBracket,
}

/// A token and the line it starts on.
type Lexed<'a> = Option<(u32, Tok<'a>)>;

/// Tokenizes JunOS text on demand, tracking the line of every token.
struct Lexer<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line_no: u32,
    /// The unlexed remainder of the current line.
    rest: &'a str,
    in_block_comment: bool,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            lines: text.lines().enumerate(),
            line_no: 0,
            rest: "",
            in_block_comment: false,
        }
    }

    /// Move on to the next line; false at the end of input.
    fn next_line(&mut self) -> bool {
        match self.lines.next() {
            Some((i, line)) => {
                self.line_no = i as u32 + 1;
                self.rest = line;
                true
            }
            None => false,
        }
    }

    /// The next token, or `None` at the end of input.
    fn next_tok(&mut self) -> Result<Lexed<'a>, ParseError> {
        loop {
            if self.in_block_comment {
                match self.rest.find("*/") {
                    Some(p) => {
                        self.in_block_comment = false;
                        self.rest = &self.rest[p + 2..];
                    }
                    None if self.next_line() => continue,
                    None => return Err(ParseError::file("unterminated block comment")),
                }
            }
            let rest = self.rest.trim_start();
            if rest.is_empty() || rest.starts_with('#') {
                if self.next_line() {
                    continue;
                }
                return Ok(None);
            }
            if let Some(after) = rest.strip_prefix("/*") {
                self.in_block_comment = true;
                self.rest = after;
                continue;
            }
            let single = match rest.as_bytes()[0] {
                b'{' => Some(Tok::LBrace),
                b'}' => Some(Tok::RBrace),
                b';' => Some(Tok::Semi),
                b'[' => Some(Tok::LBracket),
                b']' => Some(Tok::RBracket),
                _ => None,
            };
            let (tok, len) = if let Some(t) = single {
                (t, 1)
            } else if let Some(quoted) = rest.strip_prefix('"') {
                // Quoted word (descriptions, regexes with spaces).
                match quoted.find('"') {
                    Some(p) => (Tok::Word(&quoted[..p]), p + 2),
                    None => return Err(ParseError::at(self.line_no, "unterminated string")),
                }
            } else {
                // A bare word runs to the next delimiter or whitespace.
                let end = rest
                    .find(|ch: char| {
                        ch.is_whitespace() || matches!(ch, '{' | '}' | ';' | '[' | ']' | '#' | '"')
                    })
                    .unwrap_or(rest.len());
                (Tok::Word(&rest[..end]), end)
            };
            self.rest = &rest[len..];
            return Ok(Some((self.line_no, tok)));
        }
    }
}

/// Recursive descent over the streaming lexer, one token of lookahead.
///
/// Words and statements gather in two scratch buffers and are copied out,
/// exactly sized, when their statement or block ends: each statement costs
/// one allocation for its words, and each block one for its children.
struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Lexed<'a>>,
    /// Set when the lexer, not the grammar, rejected the input.
    lexical_error: bool,
    /// Words of the statement being read.
    words: Vec<&'a str>,
    /// Finished statements of every open block, innermost last.
    stmts: Vec<Stmt<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Result<Lexed<'a>, ParseError> {
        if let Some(t) = self.peeked {
            return Ok(t);
        }
        let t = self
            .lexer
            .next_tok()
            .inspect_err(|_| self.lexical_error = true)?;
        self.peeked = Some(t);
        Ok(t)
    }

    /// Consume the token the last `peek` returned.
    fn bump(&mut self) {
        self.peeked = None;
    }

    fn config(&mut self) -> Result<Vec<Stmt<'a>>, ParseError> {
        let stmts = self.stmts()?;
        match self.peek()? {
            Some((line, _)) => Err(ParseError::at(line, "unexpected '}'")),
            None => Ok(stmts),
        }
    }

    fn stmts(&mut self) -> Result<Vec<Stmt<'a>>, ParseError> {
        let block_start = self.stmts.len();
        while let Some((line, tok)) = self.peek()? {
            match tok {
                Tok::RBrace => break,
                Tok::Semi => {
                    // Stray semicolon: tolerate.
                    self.bump();
                }
                Tok::Word(_) | Tok::LBracket => {
                    let stmt = self.stmt(line)?;
                    self.stmts.push(stmt);
                }
                Tok::LBrace => {
                    return Err(ParseError::at(line, "'{' without a preceding keyword"));
                }
                Tok::RBracket => {
                    return Err(ParseError::at(line, "']' without matching '['"));
                }
            }
        }
        Ok(self.stmts.drain(block_start..).collect())
    }

    fn stmt(&mut self, start_line: u32) -> Result<Stmt<'a>, ParseError> {
        self.words.clear();
        loop {
            match self.peek()? {
                Some((_, Tok::Word(w))) => {
                    self.words.push(w);
                    self.bump();
                }
                Some((line, Tok::LBracket)) => {
                    self.bump();
                    loop {
                        match self.peek()? {
                            Some((_, Tok::Word(w))) => {
                                self.words.push(w);
                                self.bump();
                            }
                            Some((_, Tok::RBracket)) => {
                                self.bump();
                                break;
                            }
                            Some((l, other)) => {
                                return Err(ParseError::at(
                                    l,
                                    format!("unexpected {other:?} inside '[' list"),
                                ));
                            }
                            None => return Err(ParseError::at(line, "unterminated '[' list")),
                        }
                    }
                }
                Some((line, Tok::Semi)) => {
                    self.bump();
                    return Ok(Stmt {
                        words: self.words.to_vec(),
                        children: Vec::new(),
                        span: Span::lines(start_line, line),
                    });
                }
                Some((line, Tok::LBrace)) => {
                    self.bump();
                    // Nested statements reuse the word buffer.
                    let words = self.words.to_vec();
                    let children = self.stmts()?;
                    match self.peek()? {
                        Some((end, Tok::RBrace)) => {
                            self.bump();
                            return Ok(Stmt {
                                words,
                                children,
                                span: Span::lines(start_line, end),
                            });
                        }
                        _ => return Err(ParseError::at(line, "unterminated '{' block")),
                    }
                }
                Some((line, Tok::RBrace)) => {
                    return Err(ParseError::at(line, "statement missing ';' before '}'"));
                }
                Some((line, Tok::RBracket)) => {
                    return Err(ParseError::at(line, "']' without matching '['"));
                }
                None => {
                    return Err(ParseError::at(
                        start_line,
                        "statement missing ';' at end of input",
                    ));
                }
            }
        }
    }
}

/// Parse JunOS text into a list of top-level statements that borrow their
/// words from `text`.
pub fn parse_tree(text: &str) -> Result<Vec<Stmt<'_>>, ParseError> {
    let mut parser = Parser {
        lexer: Lexer::new(text),
        peeked: None,
        lexical_error: false,
        words: Vec::new(),
        stmts: Vec::new(),
    };
    parser.config().or_else(|err| {
        if !parser.lexical_error {
            // A lexical error anywhere in the file outranks a syntax error,
            // as if the whole file were tokenized first: lex the rest to
            // find one.
            while parser.lexer.next_tok()?.is_some() {}
        }
        Err(err)
    })
}

/// The owned-token parser this module replaced, kept as a differential
/// oracle: it tokenizes the whole file into owned strings first, then
/// parses the token vector. Same grammar, same errors.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Stmt;
    use crate::error::ParseError;
    use crate::span::Span;

    /// A statement with owned words.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OwnedStmt {
        pub words: Vec<String>,
        pub children: Vec<OwnedStmt>,
        pub span: Span,
    }

    /// A borrowed tree with its words copied out, for comparison.
    pub fn owned(stmts: &[Stmt<'_>]) -> Vec<OwnedStmt> {
        stmts
            .iter()
            .map(|s| OwnedStmt {
                words: s.words.iter().map(|w| w.to_string()).collect(),
                children: owned(&s.children),
                span: s.span,
            })
            .collect()
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Tok {
        Word(String),
        LBrace,
        RBrace,
        Semi,
        LBracket,
        RBracket,
    }

    fn lex(text: &str) -> Result<Vec<(u32, Tok)>, ParseError> {
        let mut toks = Vec::new();
        let mut in_block_comment = false;
        for (i, raw_line) in text.lines().enumerate() {
            let line_no = i as u32 + 1;
            let mut rest = raw_line;
            loop {
                if in_block_comment {
                    match rest.find("*/") {
                        Some(p) => {
                            in_block_comment = false;
                            rest = &rest[p + 2..];
                        }
                        None => break,
                    }
                }
                rest = rest.trim_start();
                if rest.is_empty() || rest.starts_with('#') {
                    break;
                }
                if rest.starts_with("/*") {
                    in_block_comment = true;
                    rest = &rest[2..];
                    continue;
                }
                let c = rest.chars().next().expect("nonempty");
                let single = match c {
                    '{' => Some(Tok::LBrace),
                    '}' => Some(Tok::RBrace),
                    ';' => Some(Tok::Semi),
                    '[' => Some(Tok::LBracket),
                    ']' => Some(Tok::RBracket),
                    _ => None,
                };
                if let Some(t) = single {
                    toks.push((line_no, t));
                    rest = &rest[1..];
                    continue;
                }
                if c == '"' {
                    match rest[1..].find('"') {
                        Some(p) => {
                            toks.push((line_no, Tok::Word(rest[1..1 + p].to_string())));
                            rest = &rest[p + 2..];
                        }
                        None => {
                            return Err(ParseError::at(line_no, "unterminated string"));
                        }
                    }
                    continue;
                }
                let end = rest
                    .find(|ch: char| ch.is_whitespace() || "{};[]#\"".contains(ch))
                    .unwrap_or(rest.len());
                toks.push((line_no, Tok::Word(rest[..end].to_string())));
                rest = &rest[end..];
            }
        }
        if in_block_comment {
            return Err(ParseError::file("unterminated block comment"));
        }
        Ok(toks)
    }

    pub fn parse_tree(text: &str) -> Result<Vec<OwnedStmt>, ParseError> {
        let toks = lex(text)?;
        let mut pos = 0;
        let stmts = parse_stmts(&toks, &mut pos)?;
        if pos != toks.len() {
            let (line, _) = toks[pos];
            return Err(ParseError::at(line, "unexpected '}'"));
        }
        Ok(stmts)
    }

    fn parse_stmts(toks: &[(u32, Tok)], pos: &mut usize) -> Result<Vec<OwnedStmt>, ParseError> {
        let mut stmts = Vec::new();
        while let Some((line, tok)) = toks.get(*pos) {
            match tok {
                Tok::RBrace => break,
                Tok::Semi => {
                    *pos += 1;
                }
                Tok::Word(_) | Tok::LBracket => {
                    stmts.push(parse_stmt(toks, pos)?);
                }
                Tok::LBrace => {
                    return Err(ParseError::at(*line, "'{' without a preceding keyword"));
                }
                Tok::RBracket => {
                    return Err(ParseError::at(*line, "']' without matching '['"));
                }
            }
        }
        Ok(stmts)
    }

    fn parse_stmt(toks: &[(u32, Tok)], pos: &mut usize) -> Result<OwnedStmt, ParseError> {
        let start_line = toks[*pos].0;
        let mut words = Vec::new();
        loop {
            match toks.get(*pos) {
                Some((_, Tok::Word(w))) => {
                    words.push(w.clone());
                    *pos += 1;
                }
                Some((line, Tok::LBracket)) => {
                    *pos += 1;
                    loop {
                        match toks.get(*pos) {
                            Some((_, Tok::Word(w))) => {
                                words.push(w.clone());
                                *pos += 1;
                            }
                            Some((_, Tok::RBracket)) => {
                                *pos += 1;
                                break;
                            }
                            Some((l, other)) => {
                                return Err(ParseError::at(
                                    *l,
                                    format!("unexpected {other:?} inside '[' list"),
                                ));
                            }
                            None => return Err(ParseError::at(*line, "unterminated '[' list")),
                        }
                    }
                }
                Some((line, Tok::Semi)) => {
                    *pos += 1;
                    return Ok(OwnedStmt {
                        words,
                        children: Vec::new(),
                        span: Span::lines(start_line, *line),
                    });
                }
                Some((line, Tok::LBrace)) => {
                    *pos += 1;
                    let children = parse_stmts(toks, pos)?;
                    match toks.get(*pos) {
                        Some((end_line, Tok::RBrace)) => {
                            let end = *end_line;
                            *pos += 1;
                            return Ok(OwnedStmt {
                                words,
                                children,
                                span: Span::lines(start_line, end),
                            });
                        }
                        _ => return Err(ParseError::at(*line, "unterminated '{' block")),
                    }
                }
                Some((line, Tok::RBrace)) => {
                    return Err(ParseError::at(*line, "statement missing ';' before '}'"));
                }
                Some((line, Tok::RBracket)) => {
                    return Err(ParseError::at(*line, "']' without matching '['"));
                }
                None => {
                    return Err(ParseError::at(
                        start_line,
                        "statement missing ';' at end of input",
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::robustness::{mutated, soup, JUNIPER_WORDS};
    use crate::samples;

    /// The streaming parser must build the oracle's tree, or fail with the
    /// oracle's error (same line, same message).
    fn matches_oracle(text: &str) -> Result<(), TestCaseError> {
        let got = parse_tree(text).map(|t| oracle::owned(&t));
        prop_assert_eq!(got, oracle::parse_tree(text), "input {:?}", text);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_lexer_matches_oracle_on_word_soup(input in soup(JUNIPER_WORDS)) {
            matches_oracle(&input)?;
        }

        #[test]
        fn streaming_lexer_matches_oracle_on_mutations(
            input in mutated(samples::FIGURE1_JUNIPER)
        ) {
            matches_oracle(&input)?;
        }

        #[test]
        fn streaming_lexer_matches_oracle_on_arbitrary_strings(input in "\\PC*") {
            matches_oracle(&input)?;
        }
    }

    #[test]
    fn streaming_lexer_matches_oracle_on_samples_and_edge_cases() {
        for text in [
            samples::FIGURE1_JUNIPER,
            "",
            "a;\n}",
            "a b {\n c;\n",
            "a [ b { ];",
            "bad {\n x \"unterminated\n",
            "} \"unterminated",
            "} /* open comment",
            "a; /* c1 */ b; /* c2",
            "x \"quoted word\"; y \"\";",
            "p [ q r ]\n{ s; }",
        ] {
            matches_oracle(text).unwrap();
        }
    }

    #[test]
    fn lexical_errors_outrank_earlier_syntax_errors() {
        let err = parse_tree("}\nok;\nbad \"unterminated\n").unwrap_err();
        assert_eq!(err, ParseError::at(3, "unterminated string"));
        let err = parse_tree("{\n/* never closed").unwrap_err();
        assert_eq!(err, ParseError::file("unterminated block comment"));
        let err = parse_tree("}\nfine;").unwrap_err();
        assert_eq!(err, ParseError::at(1, "unexpected '}'"));
    }

    #[test]
    fn leaf_and_stanza() {
        let stmts = parse_tree("system { host-name border1; }").unwrap();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].words, vec!["system"]);
        let hn = &stmts[0].children[0];
        assert_eq!(hn.words, vec!["host-name", "border1"]);
        assert!(hn.is_leaf());
    }

    #[test]
    fn bracket_lists_flatten() {
        let stmts = parse_tree("community COMM members [ 10:10 10:11 ];").unwrap();
        assert_eq!(
            stmts[0].words,
            vec!["community", "COMM", "members", "10:10", "10:11"]
        );
    }

    #[test]
    fn spans_cover_blocks() {
        let text = "policy-statement POL {\n  term rule1 {\n    then reject;\n  }\n}\n";
        let stmts = parse_tree(text).unwrap();
        assert_eq!(stmts[0].span, Span::lines(1, 5));
        let term = &stmts[0].children[0];
        assert_eq!(term.span, Span::lines(2, 4));
    }

    #[test]
    fn comments_ignored() {
        let text = "# a comment\nrouting-options {\n /* block\n comment */ static { route 0.0.0.0/0 next-hop 10.0.0.1; }\n}\n";
        let stmts = parse_tree(text).unwrap();
        assert_eq!(stmts[0].words, vec!["routing-options"]);
        let st = &stmts[0].children[0];
        assert_eq!(st.words, vec!["static"]);
    }

    #[test]
    fn quoted_words() {
        let stmts = parse_tree("description \"to core router\";").unwrap();
        assert_eq!(stmts[0].words, vec!["description", "to core router"]);
    }

    #[test]
    fn errors_have_positions() {
        let err = parse_tree("foo {\nbar\n}").unwrap_err();
        assert_eq!(err.line, 3, "missing semicolon detected at closing brace");
        assert!(parse_tree("a b c").is_err(), "missing terminator");
        assert!(parse_tree("}").is_err());
    }

    #[test]
    fn find_helpers() {
        let stmts = parse_tree("a { b 1; b 2; c 3; }").unwrap();
        let a = &stmts[0];
        assert_eq!(a.find_all("b").count(), 2);
        assert_eq!(a.find("c").unwrap().args(), &["3"]);
        assert!(a.find("d").is_none());
    }
}
