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
//! The tree is flat: one vector holds every word, as slices of the input,
//! and one holds every statement. A statement is a word range, a child
//! range and a span, and a block's children sit next to each other, so
//! building a tree allocates only as its two vectors grow, and dropping it
//! frees two buffers. [`Stmt`] is a copyable view into it.
//!
//! The lexer streams: the parser pulls one token at a time, scanning bytes
//! through an ASCII class table.

use crate::error::ParseError;
use crate::span::Span;

/// A parsed JunOS configuration: every word and every statement of the
/// text, in two flat vectors. Words are slices of the parsed text.
#[derive(Debug)]
pub struct Tree<'a> {
    pub(super) words: Vec<&'a str>,
    pub(super) entries: Vec<Entry>,
    /// The top-level statements' range in `entries`.
    pub(super) roots: [u32; 2],
}

/// One statement of a [`Tree`]: half-open ranges into its words and its
/// statements, and the lines the statement covers.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Entry {
    pub(super) words: [u32; 2],
    pub(super) children: [u32; 2],
    pub(super) span: Span,
}

impl<'a> Tree<'a> {
    /// The top-level statements, in source order.
    pub fn roots(&self) -> impl ExactSizeIterator<Item = Stmt<'_>> {
        self.run(self.roots)
    }

    /// The statements of `entries[start..end]`: one block's children.
    fn run(&self, [start, end]: [u32; 2]) -> impl ExactSizeIterator<Item = Stmt<'_>> {
        self.entries[start as usize..end as usize]
            .iter()
            .map(move |entry| Stmt { tree: self, entry })
    }
}

/// Tree indices and line numbers are `u32`: a text of `u32::MAX` bytes or
/// more could hold more words, statements or lines than they can count.
pub(super) fn check_size(text: &str) -> Result<(), ParseError> {
    if text.len() >= u32::MAX as usize {
        return Err(ParseError::file("configuration larger than 4 GiB"));
    }
    Ok(())
}

/// A count of words or statements as a tree index. [`check_size`] bounds
/// every such count by the text's length.
pub(super) fn index(n: usize) -> u32 {
    u32::try_from(n).expect("check_size bounds tree indices by the text length")
}

/// One statement in the tree: its words, its children (none for leaves)
/// and the source span it covers (including the closing brace).
///
/// A `Stmt` is a view: copying it copies two references.
#[derive(Clone, Copy)]
pub struct Stmt<'t> {
    tree: &'t Tree<'t>,
    entry: &'t Entry,
}

impl<'t> Stmt<'t> {
    /// The statement's tokens, with bracket groups flattened.
    pub fn words(self) -> &'t [&'t str] {
        let [start, end] = self.entry.words;
        &self.tree.words[start as usize..end as usize]
    }

    /// Child statements of a `{ ... }` stanza, in source order.
    pub fn children(self) -> impl ExactSizeIterator<Item = Stmt<'t>> {
        self.tree.run(self.entry.children)
    }

    /// Lines covered by the whole statement.
    pub fn span(self) -> Span {
        self.entry.span
    }

    /// True when the statement has no children (ends with `;`).
    pub fn is_leaf(self) -> bool {
        let [start, end] = self.entry.children;
        start == end
    }

    /// First word, if any.
    pub fn keyword(self) -> Option<&'t str> {
        self.words().first().copied()
    }

    /// Words after the keyword.
    pub fn args(self) -> &'t [&'t str] {
        self.words().get(1..).unwrap_or_default()
    }

    /// Children whose first word equals `kw`.
    pub fn find_all<'k>(self, kw: &'k str) -> impl Iterator<Item = Stmt<'t>> + 'k
    where
        't: 'k,
    {
        self.children().filter(move |c| c.keyword() == Some(kw))
    }

    /// The first child starting with `kw`, if present.
    pub fn find(self, kw: &str) -> Option<Stmt<'t>> {
        self.children().find(|c| c.keyword() == Some(kw))
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

/// Byte classes of the lexer.
const WORD: u8 = 0;
const SPACE: u8 = 1;
const NEWLINE: u8 = 2;
/// Ends a bare word: `{ } ; [ ] # "`.
const DELIMITER: u8 = 3;
/// Starts a multi-byte char, decoded to tell Unicode whitespace from text.
const NON_ASCII: u8 = 4;

const CLASS: [u8; 256] = {
    let mut class = [WORD; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            // `char::is_whitespace` in ASCII: U+0009 to U+000D and the space.
            b'\t' | 0x0b | 0x0c | b'\r' | b' ' => SPACE,
            b'\n' => NEWLINE,
            b'{' | b'}' | b';' | b'[' | b']' | b'#' | b'"' => DELIMITER,
            0x80.. => NON_ASCII,
            _ => WORD,
        };
        b += 1;
    }
    class
};

/// Tokenizes JunOS text on demand, tracking the line of every token.
///
/// Lines end at `\n` (a `\r` is whitespace, so `\r\n` ends a line too), as
/// in `str::lines`. Whitespace is `char::is_whitespace`: ASCII bytes are
/// classified by table, and a char is decoded only at a byte ≥ 0x80, so
/// every position the lexer stops at is a char boundary.
struct Lexer<'a> {
    text: &'a str,
    /// Byte offset of the unlexed remainder.
    pos: usize,
    /// Line of `pos`, 1-based.
    line: u32,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// The length of the char at `at` when it is whitespace.
    fn wide_space(&self, at: usize) -> Option<usize> {
        let c = self.text[at..].chars().next()?;
        c.is_whitespace().then(|| c.len_utf8())
    }

    /// Skip whitespace, counting lines.
    fn skip_space(&mut self) {
        let bytes = self.text.as_bytes();
        loop {
            let rest = &bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| CLASS[b as usize] != SPACE)
                .unwrap_or(rest.len());
            self.pos += run;
            match rest.get(run).map(|&b| CLASS[b as usize]) {
                Some(NEWLINE) => {
                    self.pos += 1;
                    self.line += 1;
                }
                Some(NON_ASCII) => match self.wide_space(self.pos) {
                    Some(len) => self.pos += len,
                    None => return,
                },
                _ => return,
            }
        }
    }

    /// Where the bare word at `pos` ends: at whitespace, a delimiter or the
    /// end of input.
    fn word_end(&self) -> usize {
        let bytes = self.text.as_bytes();
        let mut end = self.pos;
        loop {
            let rest = &bytes[end..];
            let run = rest
                .iter()
                .position(|&b| CLASS[b as usize] != WORD)
                .unwrap_or(rest.len());
            end += run;
            if rest.get(run).map(|&b| CLASS[b as usize]) != Some(NON_ASCII) {
                return end;
            }
            let c = self.text[end..].chars().next().expect("a char starts here");
            if c.is_whitespace() {
                return end;
            }
            end += c.len_utf8();
        }
    }

    /// The next token, or `None` at the end of input.
    fn next_tok(&mut self) -> Result<Lexed<'a>, ParseError> {
        loop {
            self.skip_space();
            let bytes = self.text.as_bytes();
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(None);
            };
            let line = self.line;
            let single = match b {
                b'{' => Some(Tok::LBrace),
                b'}' => Some(Tok::RBrace),
                b';' => Some(Tok::Semi),
                b'[' => Some(Tok::LBracket),
                b']' => Some(Tok::RBracket),
                _ => None,
            };
            let tok = if let Some(t) = single {
                self.pos += 1;
                t
            } else if b == b'#' {
                // A comment runs to the end of its line.
                self.pos += bytes[self.pos..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .unwrap_or(bytes.len() - self.pos);
                continue;
            } else if b == b'/' && bytes.get(self.pos + 1) == Some(&b'*') {
                let body = self.pos + 2;
                let Some(len) = self.text[body..].find("*/") else {
                    return Err(ParseError::file("unterminated block comment"));
                };
                let newlines = bytes[body..body + len].iter().filter(|&&c| c == b'\n');
                self.line += index(newlines.count());
                self.pos = body + len + 2;
                continue;
            } else if b == b'"' {
                // Quoted word (descriptions, regexes with spaces); it ends
                // on its own line.
                let start = self.pos + 1;
                let len = bytes[start..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\n')
                    .filter(|&len| bytes[start + len] == b'"')
                    .ok_or_else(|| ParseError::at(line, "unterminated string"))?;
                self.pos = start + len + 1;
                Tok::Word(&self.text[start..start + len])
            } else {
                let end = self.word_end();
                let word = &self.text[self.pos..end];
                self.pos = end;
                Tok::Word(word)
            };
            return Ok(Some((line, tok)));
        }
    }
}

/// A stanza whose `}` is still to come.
struct Open {
    words: [u32; 2],
    start_line: u32,
    /// The line of its `{`.
    brace_line: u32,
    /// Where its finished children begin in [`Parser::done`].
    first_child: usize,
}

/// A loop over the streaming lexer with one token of lookahead and an
/// explicit stack of open stanzas, so nesting depth costs no call stack.
///
/// Words go straight into the tree. Finished statements gather on a scratch
/// stack and move into the tree when their block closes, so each block's
/// children are contiguous.
struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Lexed<'a>>,
    /// Set when the lexer, not the grammar, rejected the input.
    lexical_error: bool,
    tree: Tree<'a>,
    /// Finished statements of every open block, innermost last.
    done: Vec<Entry>,
    open: Vec<Open>,
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

    /// Move the finished statements from `first` on into the tree, as one
    /// run of siblings, and return its range.
    fn close(&mut self, first: usize) -> [u32; 2] {
        let start = index(self.tree.entries.len());
        self.tree.entries.extend(self.done.drain(first..));
        [start, index(self.tree.entries.len())]
    }

    fn config(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek()? {
                None => {
                    if let Some(open) = self.open.last() {
                        return Err(ParseError::at(open.brace_line, "unterminated '{' block"));
                    }
                    self.tree.roots = self.close(0);
                    return Ok(());
                }
                Some((line, Tok::RBrace)) => {
                    let Some(open) = self.open.pop() else {
                        return Err(ParseError::at(line, "unexpected '}'"));
                    };
                    self.bump();
                    let children = self.close(open.first_child);
                    self.done.push(Entry {
                        words: open.words,
                        children,
                        span: Span::lines(open.start_line, line),
                    });
                }
                Some((_, Tok::Semi)) => {
                    // Stray semicolon: tolerate.
                    self.bump();
                }
                Some((line, Tok::Word(_) | Tok::LBracket)) => self.stmt(line)?,
                Some((line, Tok::LBrace)) => {
                    return Err(ParseError::at(line, "'{' without a preceding keyword"));
                }
                Some((line, Tok::RBracket)) => {
                    return Err(ParseError::at(line, "']' without matching '['"));
                }
            }
        }
    }

    /// Read one statement's words: a leaf joins the finished statements, a
    /// stanza opens a block.
    fn stmt(&mut self, start_line: u32) -> Result<(), ParseError> {
        let first_word = index(self.tree.words.len());
        loop {
            match self.peek()? {
                Some((_, Tok::Word(w))) => {
                    self.tree.words.push(w);
                    self.bump();
                }
                Some((line, Tok::LBracket)) => {
                    self.bump();
                    loop {
                        match self.peek()? {
                            Some((_, Tok::Word(w))) => {
                                self.tree.words.push(w);
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
                    self.done.push(Entry {
                        words: [first_word, index(self.tree.words.len())],
                        children: [0, 0],
                        span: Span::lines(start_line, line),
                    });
                    return Ok(());
                }
                Some((line, Tok::LBrace)) => {
                    self.bump();
                    self.open.push(Open {
                        words: [first_word, index(self.tree.words.len())],
                        start_line,
                        brace_line: line,
                        first_child: self.done.len(),
                    });
                    return Ok(());
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

/// Parse JunOS text into a statement tree that borrows its words from
/// `text`.
pub fn parse_tree(text: &str) -> Result<Tree<'_>, ParseError> {
    check_size(text)?;
    // The configs measured so far take 13 to 23 bytes of text per word and
    // 24 to 53 per statement. Reserving from the text's length spares
    // regrowing, and so copying, both vectors; pages of an unused tail are
    // never touched.
    let tree = Tree {
        words: Vec::with_capacity(text.len() / 12),
        entries: Vec::with_capacity(text.len() / 24),
        roots: [0, 0],
    };
    let mut parser = Parser {
        lexer: Lexer::new(text),
        peeked: None,
        lexical_error: false,
        tree,
        done: Vec::new(),
        open: Vec::new(),
    };
    match parser.config() {
        Ok(()) => Ok(parser.tree),
        Err(err) => {
            if !parser.lexical_error {
                // A lexical error anywhere in the file outranks a syntax
                // error, as if the whole file were tokenized first: lex the
                // rest to find one.
                while parser.lexer.next_tok()?.is_some() {}
            }
            Err(err)
        }
    }
}

/// The owned-token parser this module replaced, kept as a differential
/// oracle: it tokenizes the whole file into owned strings first, then
/// parses the token vector. Same grammar, same errors.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{Stmt, Tree};
    use crate::error::ParseError;
    use crate::span::Span;

    /// A statement with owned words.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OwnedStmt {
        pub words: Vec<String>,
        pub children: Vec<OwnedStmt>,
        pub span: Span,
    }

    /// A flat tree's statements with their words copied out, nested, for
    /// comparison.
    pub fn owned(tree: &Tree<'_>) -> Vec<OwnedStmt> {
        owned_run(tree.roots())
    }

    fn owned_run<'t>(stmts: impl Iterator<Item = Stmt<'t>>) -> Vec<OwnedStmt> {
        stmts
            .map(|s| OwnedStmt {
                words: s.words().iter().map(|w| w.to_string()).collect(),
                children: owned_run(s.children()),
                span: s.span(),
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
        // At least 256 cases; honor a larger PROPTEST_CASES from the
        // environment.
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

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
            // Whitespace beyond the space and tab, between words and at
            // line ends.
            "a\u{b}b;\u{b}\nc\u{c}d;\u{c}\ne\u{85}f;\u{85}\n",
            "a\u{a0}b {\u{a0}\n c\u{2028}d;\u{2028}\n}\u{3000}e\u{3000}f;\u{3000}\n",
            "a\u{85}{\u{a0}b\u{2028};\u{3000}}",
            // A lone carriage return, and CRLF line endings.
            "a\rb;\rc\r;\r",
            "a {\r\n  b \"q\";\r\n  # note\r\n}\r\nc [ d\r\ne ];\r\n\"open\r\n",
            // A multi-byte char starting a word and right before each
            // delimiter.
            "é x;\nxé;\nyé{ zé\"q\"; }\nwé#c\n;",
            "∀ [ ü ] {\n  日本;\n}\n",
            // A block comment opened after non-ASCII whitespace.
            "\u{a0}/* c */ a;\n\u{3000}/* c\n */ b;\u{85}/*\n*/c;",
            "a;\u{2028}/* never closed",
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
        let tree = parse_tree("system { host-name border1; }").unwrap();
        assert_eq!(tree.roots().len(), 1);
        let system = tree.roots().next().unwrap();
        assert_eq!(system.words(), ["system"]);
        let hn = system.children().next().unwrap();
        assert_eq!(hn.words(), ["host-name", "border1"]);
        assert!(hn.is_leaf());
    }

    #[test]
    fn bracket_lists_flatten() {
        let tree = parse_tree("community COMM members [ 10:10 10:11 ];").unwrap();
        assert_eq!(
            tree.roots().next().unwrap().words(),
            ["community", "COMM", "members", "10:10", "10:11"]
        );
    }

    #[test]
    fn spans_cover_blocks() {
        let text = "policy-statement POL {\n  term rule1 {\n    then reject;\n  }\n}\n";
        let tree = parse_tree(text).unwrap();
        let pol = tree.roots().next().unwrap();
        assert_eq!(pol.span(), Span::lines(1, 5));
        let term = pol.children().next().unwrap();
        assert_eq!(term.span(), Span::lines(2, 4));
    }

    #[test]
    fn comments_ignored() {
        let text = "# a comment\nrouting-options {\n /* block\n comment */ static { route 0.0.0.0/0 next-hop 10.0.0.1; }\n}\n";
        let tree = parse_tree(text).unwrap();
        let ro = tree.roots().next().unwrap();
        assert_eq!(ro.words(), ["routing-options"]);
        let st = ro.children().next().unwrap();
        assert_eq!(st.words(), ["static"]);
        assert_eq!(st.span(), Span::line(4));
    }

    #[test]
    fn quoted_words() {
        let tree = parse_tree("description \"to core router\";").unwrap();
        assert_eq!(
            tree.roots().next().unwrap().words(),
            ["description", "to core router"]
        );
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
        let tree = parse_tree("a { b 1; b 2; c 3; }").unwrap();
        let a = tree.roots().next().unwrap();
        assert_eq!(a.find_all("b").count(), 2);
        assert_eq!(a.find("c").unwrap().args(), ["3"]);
        assert!(a.find("d").is_none());
    }

    /// Blocks nest without recursion: a deep stanza neither overflows the
    /// stack while parsing nor while dropping.
    #[test]
    fn deep_nesting_parses_without_recursion() {
        let depth = 100_000;
        let text = format!("{}x;{}", "a {".repeat(depth), "}".repeat(depth));
        let tree = parse_tree(&text).unwrap();
        let mut stmt = tree.roots().next().unwrap();
        let mut levels = 1;
        while let Some(child) = stmt.children().next() {
            stmt = child;
            levels += 1;
        }
        assert_eq!(levels, depth + 1);
        assert_eq!(stmt.words(), ["x"]);
    }
}
