//! Source locations: the foundation of text localization.

use std::fmt;
use std::sync::Arc;

/// Which configuration language a piece of text was written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Cisco IOS, line-oriented.
    CiscoIos,
    /// Juniper JunOS, hierarchical braces.
    JuniperJunos,
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vendor::CiscoIos => write!(f, "Cisco IOS"),
            Vendor::JuniperJunos => write!(f, "Juniper JunOS"),
        }
    }
}

/// An inclusive range of 1-based line numbers in the original configuration.
///
/// Every parsed element keeps its span so Campion's `Present` step can quote
/// the exact configuration text responsible for a difference — the paper's
/// *text localization*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// First line, 1-based, inclusive.
    pub start: u32,
    /// Last line, 1-based, inclusive.
    pub end: u32,
}

impl Default for Span {
    /// A placeholder span pointing at the first line; used by containers
    /// that are populated incrementally.
    fn default() -> Self {
        Span { start: 1, end: 1 }
    }
}

impl Span {
    /// A single-line span.
    pub fn line(n: u32) -> Self {
        Span { start: n, end: n }
    }

    /// A multi-line span.
    ///
    /// # Panics
    /// Panics when `start > end` or `start == 0`.
    pub fn lines(start: u32, end: u32) -> Self {
        assert!(start >= 1 && start <= end, "invalid span {start}..{end}");
        Span { start, end }
    }

    /// The smallest span covering both.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Number of lines covered.
    pub fn line_count(self) -> u32 {
        self.end - self.start + 1
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.start == self.end {
            write!(f, "line {}", self.start)
        } else {
            write!(f, "lines {}-{}", self.start, self.end)
        }
    }
}

/// The original configuration text, retained for snippet extraction.
///
/// Campion "unparses" IR elements back to configuration text by simply
/// slicing the original source with the element's span — guaranteed to match
/// what the operator wrote, whitespace and all.
///
/// The text is held once, behind an `Arc`, with an index of where each line
/// starts. Lines follow [`str::lines`] exactly: a trailing `\n` or `\r\n` is
/// not part of the line, and a final line ending does not start an empty
/// last line. Cloning shares the buffer, so every lowered model of a config
/// points at the same text.
#[derive(Debug, Clone)]
pub struct SourceText {
    text: Arc<str>,
    /// Byte offset of each line's first character.
    line_starts: Arc<[usize]>,
}

impl SourceText {
    /// Capture the configuration text.
    pub fn new(text: &str) -> Self {
        // A line starts at 0 and after every `\n`, except at the very end.
        let line_starts = std::iter::once(0)
            .chain(text.match_indices('\n').map(|(i, _)| i + 1))
            .filter(|&start| start < text.len())
            .collect();
        SourceText {
            text: text.into(),
            line_starts,
        }
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }

    /// A single line by 1-based number (`None` when out of range).
    pub fn line(&self, n: u32) -> Option<&str> {
        let i = (n as usize).checked_sub(1)?;
        let start = *self.line_starts.get(i)?;
        let end = self
            .line_starts
            .get(i + 1)
            .copied()
            .unwrap_or(self.text.len());
        let line = &self.text[start..end];
        // The same terminator stripping as `str::lines`.
        Some(match line.strip_suffix('\n') {
            Some(l) => l.strip_suffix('\r').unwrap_or(l),
            None => line,
        })
    }

    /// The text covered by `span`, joined with newlines. Lines outside the
    /// file are silently dropped (spans are trusted but not load-bearing).
    pub fn snippet(&self, span: Span) -> String {
        (span.start..=span.end)
            .filter_map(|n| self.line(n))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Like [`SourceText::snippet`], but with leading indentation trimmed
    /// uniformly (for display in reports). Indentation is counted in
    /// characters, so a multi-byte space such as U+00A0 counts once and is
    /// never cut in half; a line shorter than the common indentation (a
    /// blank one) is kept whole.
    pub fn snippet_dedented(&self, span: Span) -> String {
        let raw = self.snippet(span);
        let min_indent = raw
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.chars().take_while(|c| c.is_whitespace()).count())
            .min()
            .unwrap_or(0);
        raw.lines()
            .map(|l| {
                let mut cuts = l.char_indices().map(|(i, _)| i).chain([l.len()]);
                cuts.nth(min_indent).map_or(l, |cut| &l[cut..])
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fragments dense in line terminators (`\PC` never yields them).
    const LINE_SOUP: &[&str] = &["a", " b", "\n", "\r", "\r\n", "é"];

    /// Fragments dense in indentation, one- and multi-byte.
    const INDENT_SOUP: &[&str] = &[" ", "\t", "\u{a0}", "\u{3000}", "x", "é", "\n", "\r\n"];

    /// Dedent all of `text` and check the result line by line: each line
    /// loses only leading whitespace, every non-blank line loses the same
    /// number of characters, and some non-blank line keeps none. ASCII text
    /// must dedent byte for byte as a byte-counted cut does.
    fn assert_dedents(text: &str) {
        let src = SourceText::new(text);
        let all = Span::lines(1, src.line_count().max(1) as u32);
        let (raw, out) = (src.snippet(all), src.snippet_dedented(all));
        let mut cut_chars = Vec::new();
        for (r, o) in raw.lines().zip(out.split('\n')) {
            let cut = r.strip_suffix(o).expect("a dedented line is a suffix");
            assert!(cut.chars().all(char::is_whitespace), "cut {cut:?} of {r:?}");
            if !r.trim().is_empty() {
                cut_chars.push(cut.chars().count());
                assert!(cut_chars.iter().all(|&n| n == cut_chars[0]), "{text:?}");
            }
        }
        let flush = |l: &str| !l.trim().is_empty() && !l.starts_with(char::is_whitespace);
        if !cut_chars.is_empty() {
            assert!(out.lines().any(flush), "not fully dedented: {out:?}");
        }
        if text.is_ascii() {
            let min = raw
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| l.len() - l.trim_start().len())
                .min()
                .unwrap_or(0);
            let bytewise: Vec<&str> = raw.lines().map(|l| l.get(min..).unwrap_or(l)).collect();
            assert_eq!(out, bytewise.join("\n"));
        }
    }

    /// `SourceText` must number and slice lines exactly as `str::lines`.
    fn assert_lines_match(text: &str) {
        let src = SourceText::new(text);
        let want: Vec<&str> = text.lines().collect();
        assert_eq!(src.line_count(), want.len(), "line count of {text:?}");
        for (i, line) in want.iter().enumerate() {
            assert_eq!(
                src.line(i as u32 + 1),
                Some(*line),
                "line {} of {text:?}",
                i + 1
            );
        }
        assert_eq!(src.line(0), None, "line 0 of {text:?}");
        assert_eq!(
            src.line(want.len() as u32 + 1),
            None,
            "line n+1 of {text:?}"
        );
        assert_eq!(src.line(u32::MAX), None);
    }

    #[test]
    fn lines_follow_str_lines() {
        for text in [
            "",
            "\n",
            "\r\n",
            "one",
            "one\n",
            "one\ntwo",
            "one\r\ntwo\r\n",
            "crlf\r\nmixed\nends\r",
            "trailing blanks\n\n\n",
            "trailing crlf blanks\r\n\r\n",
            "\n\nleading blanks",
            "lone \r inside\n",
            "multi-byte é\n→ line two",
        ] {
            assert_lines_match(text);
        }
    }

    #[test]
    fn snippets_join_the_spanned_lines() {
        let src = SourceText::new("a {\r\n    b;\r\n}\r\n");
        assert_eq!(src.snippet(Span::lines(1, 3)), "a {\n    b;\n}");
        assert_eq!(src.snippet(Span::lines(2, 9)), "    b;\n}");
        assert_eq!(src.snippet_dedented(Span::line(2)), "b;");
        assert_eq!(src.snippet(Span::line(4)), "");
    }

    #[test]
    fn dedent_counts_multibyte_indentation_once() {
        let src = SourceText::new(" term t1 {\n\u{a0}from {\n  then accept;\n   \n");
        assert_eq!(
            src.snippet_dedented(Span::lines(1, 4)),
            "term t1 {\nfrom {\n then accept;\n  "
        );
    }

    #[test]
    fn clones_share_the_buffer() {
        let src = SourceText::new("x\ny\n");
        let copy = src.clone();
        assert!(Arc::ptr_eq(&src.text, &copy.text));
        assert!(Arc::ptr_eq(&src.line_starts, &copy.line_starts));
    }

    proptest! {
        // At least 256 cases; honor a larger PROPTEST_CASES from the
        // environment.
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        #[test]
        fn lines_follow_str_lines_on_arbitrary_text(text in "\\PC*") {
            assert_lines_match(&text);
        }

        #[test]
        fn lines_follow_str_lines_on_line_ending_soup(
            parts in proptest::collection::vec(proptest::sample::select(LINE_SOUP), 0..40)
        ) {
            assert_lines_match(&parts.concat());
        }

        #[test]
        fn dedent_cuts_whole_characters_of_arbitrary_text(text in "\\PC*") {
            assert_dedents(&text);
        }

        #[test]
        fn dedent_cuts_whole_characters_of_indentation_soup(
            parts in proptest::collection::vec(proptest::sample::select(INDENT_SOUP), 0..40)
        ) {
            assert_dedents(&parts.concat());
        }
    }
}
