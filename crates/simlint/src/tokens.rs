//! The lexer: Rust source text to a tree of [`TokenTree`]s — [`Group`]s
//! for `()`/`[]`/`{}`, [`Ident`]s, [`Punct`]s, and [`Literal`]s — whose
//! [`Span`]s carry 1-based line and 0-based column start positions. Its
//! shape follows `proc-macro2`, but it is written here because the build
//! has no crates.io access.
//!
//! Comments (line, nested block, and doc) are skipped entirely; doc
//! comments are **not** turned into `#[doc]` attributes. No rule reads
//! a comment.

use std::fmt;
use std::str::FromStr;

/// A line/column position in the source text: `line` is 1-based,
/// `column` is a 0-based character (not byte) offset, matching the real
/// proc-macro2 convention.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct LineColumn {
    pub(crate) line: usize,
    pub(crate) column: usize,
}

/// Where a token starts in the source text (findings report only the
/// start, so that is all a span keeps).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Span {
    start: LineColumn,
}

impl Span {
    /// A span starting at `start`.
    pub(crate) fn new(start: LineColumn) -> Span {
        Span { start }
    }

    /// Where the region begins.
    pub(crate) fn start(&self) -> LineColumn {
        self.start
    }
}

/// Which bracket pair a [`Group`] is wrapped in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Delimiter {
    /// `( ... )`
    Parenthesis,
    /// `{ ... }`
    Brace,
    /// `[ ... ]`
    Bracket,
}

/// Whether a [`Punct`] is immediately followed by another punct character
/// (`Joint`) or not (`Alone`) — what lets `==` be distinguished from `= =`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Spacing {
    Alone,
    Joint,
}

/// A word: keyword, identifier, or raw identifier (stored without `r#`).
#[derive(Clone, Debug)]
pub(crate) struct Ident {
    sym: String,
    span: Span,
}

impl Ident {
    /// Construct an identifier with an explicit span.
    pub(crate) fn new(sym: &str, span: Span) -> Ident {
        Ident {
            sym: sym.to_string(),
            span,
        }
    }

    /// The identifier's source location.
    pub(crate) fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sym)
    }
}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        self.sym == other
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        self.sym == *other
    }
}

/// A single punctuation character.
#[derive(Clone, Debug)]
pub(crate) struct Punct {
    ch: char,
    spacing: Spacing,
    span: Span,
}

impl Punct {
    /// Construct a punct with an explicit span.
    pub(crate) fn new(ch: char, spacing: Spacing, span: Span) -> Punct {
        Punct { ch, spacing, span }
    }

    /// The character itself.
    pub(crate) fn as_char(&self) -> char {
        self.ch
    }

    /// Whether the next token was another punct character.
    pub(crate) fn spacing(&self) -> Spacing {
        self.spacing
    }

    /// The punct's source location.
    pub(crate) fn span(&self) -> Span {
        self.span
    }
}

/// A literal token: numbers, strings, chars, and byte variants, stored as
/// their verbatim source text.
#[derive(Clone, Debug)]
pub(crate) struct Literal {
    repr: String,
    span: Span,
}

impl Literal {
    /// Construct a literal from its source text.
    pub(crate) fn new(repr: String, span: Span) -> Literal {
        Literal { repr, span }
    }

    /// The literal's source location.
    pub(crate) fn span(&self) -> Span {
        self.span
    }

    /// The verbatim source text of the literal.
    pub(crate) fn repr(&self) -> &str {
        &self.repr
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.repr)
    }
}

/// A delimited sequence of tokens.
#[derive(Clone, Debug)]
pub(crate) struct Group {
    delimiter: Delimiter,
    stream: TokenStream,
    span: Span,
}

impl Group {
    /// Construct a group with an explicit span.
    pub(crate) fn new(delimiter: Delimiter, stream: TokenStream, span: Span) -> Group {
        Group {
            delimiter,
            stream,
            span,
        }
    }

    /// Which bracket pair wraps the group.
    pub(crate) fn delimiter(&self) -> Delimiter {
        self.delimiter
    }

    /// The tokens between the delimiters.
    pub(crate) fn stream(&self) -> &TokenStream {
        &self.stream
    }

    /// The whole group's source location, delimiters included.
    pub(crate) fn span(&self) -> Span {
        self.span
    }
}

/// One node of the token tree.
#[derive(Clone, Debug)]
pub(crate) enum TokenTree {
    Group(Group),
    Ident(Ident),
    Punct(Punct),
    Literal(Literal),
}

impl TokenTree {
    /// The token's source location.
    pub(crate) fn span(&self) -> Span {
        match self {
            TokenTree::Group(g) => g.span(),
            TokenTree::Ident(i) => i.span(),
            TokenTree::Punct(p) => p.span(),
            TokenTree::Literal(l) => l.span(),
        }
    }
}

/// A sequence of [`TokenTree`]s.
#[derive(Clone, Debug, Default)]
pub(crate) struct TokenStream {
    trees: Vec<TokenTree>,
}

impl TokenStream {
    /// The top-level tokens as a slice.
    pub(crate) fn tokens(&self) -> &[TokenTree] {
        &self.trees
    }
}

impl From<Vec<TokenTree>> for TokenStream {
    fn from(trees: Vec<TokenTree>) -> TokenStream {
        TokenStream { trees }
    }
}

/// A lexing failure, with the position it occurred at.
#[derive(Debug, Clone)]
pub(crate) struct LexError {
    pub(crate) pos: LineColumn,
    pub(crate) message: String,
}

impl FromStr for TokenStream {
    type Err = LexError;

    fn from_str(src: &str) -> Result<TokenStream, LexError> {
        let mut lexer = Lexer::new(src);
        let trees = lexer.lex_until(None)?;
        Ok(TokenStream { trees })
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Lexer {
    fn new(src: &str) -> Lexer {
        // A leading shebang line is not part of the token stream.
        let src = if src.starts_with("#!") && !src.starts_with("#![") {
            match src.find('\n') {
                Some(i) => &src[i..],
                None => "",
            }
        } else {
            src
        };
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 0,
        }
    }

    fn here(&self) -> LineColumn {
        LineColumn {
            line: self.line,
            column: self.col,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, message: &str) -> LexError {
        LexError {
            pos: self.here(),
            message: message.to_string(),
        }
    }

    /// Skip whitespace and comments. Returns an error on an unterminated
    /// block comment.
    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek_at(1) == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek_at(1) == Some('*') => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    loop {
                        match (self.peek(), self.peek_at(1)) {
                            (Some('/'), Some('*')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(LexError {
                                    pos: start,
                                    message: "unterminated block comment".into(),
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lex token trees until `closing` (or end of input when `None`).
    fn lex_until(&mut self, closing: Option<char>) -> Result<Vec<TokenTree>, LexError> {
        let mut trees = Vec::new();
        loop {
            self.skip_trivia()?;
            let Some(c) = self.peek() else {
                return match closing {
                    None => Ok(trees),
                    Some(close) => {
                        Err(self.error(&format!("expected `{close}`, found end of input")))
                    }
                };
            };
            if let Some(close) = closing {
                if c == close {
                    return Ok(trees);
                }
            }
            match c {
                ')' | ']' | '}' => {
                    return Err(self.error(&format!("unexpected closing `{c}`")));
                }
                '(' | '[' | '{' => {
                    let start = self.here();
                    self.bump();
                    let (delim, close) = match c {
                        '(' => (Delimiter::Parenthesis, ')'),
                        '[' => (Delimiter::Bracket, ']'),
                        _ => (Delimiter::Brace, '}'),
                    };
                    let inner = self.lex_until(Some(close))?;
                    self.bump(); // the closing delimiter
                    let span = Span::new(start);
                    trees.push(TokenTree::Group(Group::new(
                        delim,
                        TokenStream { trees: inner },
                        span,
                    )));
                }
                '"' => trees.push(self.lex_string()?),
                '\'' => self.lex_quote(&mut trees)?,
                c if c.is_ascii_digit() => trees.push(self.lex_number()?),
                c if is_ident_start(c) => self.lex_word(&mut trees)?,
                _ => trees.push(self.lex_punct()),
            }
        }
    }

    fn lex_punct(&mut self) -> TokenTree {
        let start = self.here();
        let c = self.bump().expect("peeked");
        let joint = matches!(
            self.peek(),
            Some(n) if is_punct_char(n)
        );
        let spacing = if joint {
            Spacing::Joint
        } else {
            Spacing::Alone
        };
        TokenTree::Punct(Punct::new(c, spacing, Span::new(start)))
    }

    /// Idents, raw idents (`r#type`), and the string-ish literals that
    /// begin with a letter: `r"..."`, `r#"..."#`, `b"..."`, `b'..'`,
    /// `br#"..."#`.
    fn lex_word(&mut self, trees: &mut Vec<TokenTree>) -> Result<(), LexError> {
        let start = self.here();
        // Raw string r"..." / r#"..."# (and br variants).
        let (prefix_len, is_raw_str) = match (self.peek(), self.peek_at(1), self.peek_at(2)) {
            (Some('r'), Some('"' | '#'), _) if self.raw_string_follows(1) => (1, true),
            (Some('b'), Some('r'), Some('"' | '#')) if self.raw_string_follows(2) => (2, true),
            (Some('b'), Some('"'), _) => (1, false),
            (Some('b'), Some('\''), _) => {
                // Byte char literal b'x'.
                self.bump(); // b
                self.bump(); // '
                let mut repr = String::from("b'");
                self.consume_char_body(&mut repr)?;
                trees.push(TokenTree::Literal(Literal::new(repr, Span::new(start))));
                return Ok(());
            }
            _ => (0, false),
        };
        if is_raw_str {
            let mut repr = String::new();
            for _ in 0..prefix_len {
                repr.push(self.bump().expect("peeked"));
            }
            self.consume_raw_string(&mut repr)?;
            trees.push(TokenTree::Literal(Literal::new(repr, Span::new(start))));
            return Ok(());
        }
        if prefix_len == 1 {
            // b"..." byte string.
            let mut repr = String::new();
            repr.push(self.bump().expect("peeked")); // b
            self.bump(); // opening quote
            repr.push('"');
            self.consume_string_body(&mut repr)?;
            trees.push(TokenTree::Literal(Literal::new(repr, Span::new(start))));
            return Ok(());
        }
        // Raw ident r#word.
        if self.peek() == Some('r')
            && self.peek_at(1) == Some('#')
            && self.peek_at(2).is_some_and(is_ident_start)
        {
            self.bump();
            self.bump();
            let mut sym = String::new();
            while let Some(c) = self.peek() {
                if is_ident_continue(c) {
                    sym.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            trees.push(TokenTree::Ident(Ident::new(&sym, Span::new(start))));
            return Ok(());
        }
        // Plain ident.
        let mut sym = String::new();
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                sym.push(c);
                self.bump();
            } else {
                break;
            }
        }
        trees.push(TokenTree::Ident(Ident::new(&sym, Span::new(start))));
        Ok(())
    }

    /// Whether position `off` starts `#*"` — the hash/quote run of a raw
    /// string.
    fn raw_string_follows(&self, off: usize) -> bool {
        let mut i = off;
        while self.peek_at(i) == Some('#') {
            i += 1;
        }
        self.peek_at(i) == Some('"')
    }

    fn consume_raw_string(&mut self, repr: &mut String) -> Result<(), LexError> {
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            repr.push('#');
            hashes += 1;
            self.bump();
        }
        if self.peek() != Some('"') {
            return Err(self.error("expected `\"` in raw string"));
        }
        repr.push('"');
        self.bump();
        loop {
            let Some(c) = self.bump() else {
                return Err(self.error("unterminated raw string"));
            };
            repr.push(c);
            if c == '"' {
                let mut ok = true;
                for i in 0..hashes {
                    if self.peek_at(i) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..hashes {
                        repr.push('#');
                        self.bump();
                    }
                    return Ok(());
                }
            }
        }
    }

    fn lex_string(&mut self) -> Result<TokenTree, LexError> {
        let start = self.here();
        self.bump(); // opening quote
        let mut repr = String::from("\"");
        self.consume_string_body(&mut repr)?;
        Ok(TokenTree::Literal(Literal::new(repr, Span::new(start))))
    }

    /// Body of a `"..."` string, opening quote already consumed; pushes the
    /// body and closing quote onto `repr`.
    fn consume_string_body(&mut self, repr: &mut String) -> Result<(), LexError> {
        loop {
            let Some(c) = self.bump() else {
                return Err(self.error("unterminated string literal"));
            };
            repr.push(c);
            match c {
                '"' => return Ok(()),
                '\\' => {
                    if let Some(esc) = self.bump() {
                        repr.push(esc);
                    } else {
                        return Err(self.error("unterminated escape in string"));
                    }
                }
                _ => {}
            }
        }
    }

    /// `'` already seen: lifetime (`'a`) or char literal (`'a'`, `'\n'`).
    fn lex_quote(&mut self, trees: &mut Vec<TokenTree>) -> Result<(), LexError> {
        let start = self.here();
        self.bump(); // the quote
        match self.peek() {
            Some('\\') => {
                // Escaped char literal.
                let mut repr = String::from("'");
                self.consume_char_body(&mut repr)?;
                trees.push(TokenTree::Literal(Literal::new(repr, Span::new(start))));
                Ok(())
            }
            Some(c) if is_ident_start(c) => {
                // Could be a lifetime (`'a`) or a char literal (`'a'`).
                let mut word = String::new();
                let mut i = 0usize;
                while let Some(n) = self.peek_at(i) {
                    if is_ident_continue(n) {
                        word.push(n);
                        i += 1;
                    } else {
                        break;
                    }
                }
                if self.peek_at(i) == Some('\'') {
                    // Char literal: consume the word and closing quote.
                    let mut repr = String::from("'");
                    for _ in 0..=i {
                        repr.push(self.bump().expect("peeked"));
                    }
                    trees.push(TokenTree::Literal(Literal::new(repr, Span::new(start))));
                } else {
                    // Lifetime: `'` as a Joint punct, then the ident.
                    let qspan = Span::new(start);
                    trees.push(TokenTree::Punct(Punct::new('\'', Spacing::Joint, qspan)));
                    let id_start = self.here();
                    for _ in 0..i {
                        self.bump();
                    }
                    trees.push(TokenTree::Ident(Ident::new(&word, Span::new(id_start))));
                }
                Ok(())
            }
            Some(_) => {
                // Char literal of a non-ident char: '.', ' ', etc.
                let mut repr = String::from("'");
                self.consume_char_body(&mut repr)?;
                trees.push(TokenTree::Literal(Literal::new(repr, Span::new(start))));
                Ok(())
            }
            None => Err(self.error("unterminated char literal")),
        }
    }

    /// Body of a char literal after the opening quote: one (possibly
    /// escaped) char plus the closing quote.
    fn consume_char_body(&mut self, repr: &mut String) -> Result<(), LexError> {
        match self.bump() {
            Some('\\') => {
                repr.push('\\');
                let Some(esc) = self.bump() else {
                    return Err(self.error("unterminated escape in char literal"));
                };
                repr.push(esc);
                if esc == 'u' {
                    // \u{...}
                    while let Some(c) = self.peek() {
                        repr.push(c);
                        self.bump();
                        if c == '}' {
                            break;
                        }
                    }
                } else if esc == 'x' {
                    for _ in 0..2 {
                        if let Some(c) = self.peek() {
                            if c.is_ascii_hexdigit() {
                                repr.push(c);
                                self.bump();
                            }
                        }
                    }
                }
            }
            Some(c) => repr.push(c),
            None => return Err(self.error("unterminated char literal")),
        }
        match self.bump() {
            Some('\'') => {
                repr.push('\'');
                Ok(())
            }
            _ => Err(self.error("expected closing `'` in char literal")),
        }
    }

    fn lex_number(&mut self) -> Result<TokenTree, LexError> {
        let start = self.here();
        let mut repr = String::new();
        let first = self.bump().expect("peeked");
        repr.push(first);
        if first == '0' && matches!(self.peek(), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B')) {
            repr.push(self.bump().expect("peeked"));
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    repr.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            return Ok(TokenTree::Literal(Literal::new(repr, Span::new(start))));
        }
        // Integer part.
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '_' {
                repr.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Fractional part: `.` not followed by another `.` (range) or an
        // ident start (method call on an integer / tuple field).
        if self.peek() == Some('.')
            && !matches!(self.peek_at(1), Some('.'))
            && !self.peek_at(1).is_some_and(is_ident_start)
        {
            repr.push('.');
            self.bump();
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || c == '_' {
                    repr.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent.
        if matches!(self.peek(), Some('e' | 'E')) {
            let next = self.peek_at(1);
            let exp_digit = |c: Option<char>| c.is_some_and(|c| c.is_ascii_digit());
            if exp_digit(next) || (matches!(next, Some('+' | '-')) && exp_digit(self.peek_at(2))) {
                repr.push(self.bump().expect("peeked"));
                if matches!(self.peek(), Some('+' | '-')) {
                    repr.push(self.bump().expect("peeked"));
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() || c == '_' {
                        repr.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix (u32, f64, usize, ...).
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                repr.push(c);
                self.bump();
            } else {
                break;
            }
        }
        Ok(TokenTree::Literal(Literal::new(repr, Span::new(start))))
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

fn is_punct_char(c: char) -> bool {
    matches!(
        c,
        '~' | '!'
            | '@'
            | '#'
            | '$'
            | '%'
            | '^'
            | '&'
            | '*'
            | '-'
            | '='
            | '+'
            | '|'
            | ';'
            | ':'
            | ','
            | '<'
            | '>'
            | '.'
            | '?'
            | '/'
            | '\''
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> TokenStream {
        src.parse().expect("lex")
    }

    fn kinds(ts: &TokenStream) -> Vec<String> {
        ts.tokens()
            .iter()
            .map(|t| match t {
                TokenTree::Group(g) => format!("G{:?}", g.delimiter()),
                TokenTree::Ident(i) => format!("I:{i}"),
                TokenTree::Punct(p) => format!("P:{}", p.as_char()),
                TokenTree::Literal(l) => format!("L:{l}"),
            })
            .collect()
    }

    #[test]
    fn lexes_idents_puncts_and_groups() {
        let ts = lex("fn main() { let x = 1; }");
        let k = kinds(&ts);
        assert_eq!(k[0], "I:fn");
        assert_eq!(k[1], "I:main");
        assert_eq!(k[2], "GParenthesis");
        assert_eq!(k[3], "GBrace");
        let TokenTree::Group(body) = &ts.tokens()[3] else {
            panic!("expected body group");
        };
        assert_eq!(
            kinds(body.stream()),
            vec!["I:let", "I:x", "P:=", "L:1", "P:;"]
        );
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let ts = lex("a\n  bb");
        let a = ts.tokens()[0].span().start();
        let b = ts.tokens()[1].span().start();
        assert_eq!((a.line, a.column), (1, 0));
        assert_eq!((b.line, b.column), (2, 2));
    }

    #[test]
    fn comments_are_skipped_including_nested_blocks() {
        let ts = lex("a // line\n /* b /* nested */ still */ c");
        assert_eq!(kinds(&ts), vec!["I:a", "I:c"]);
    }

    #[test]
    fn numbers_cover_floats_exponents_and_suffixes() {
        let ts = lex("1 1.5 1e9 0.6e9 1_000u64 0xFFu8 1.0f64 1..2 3.max(4)");
        let k = kinds(&ts);
        assert_eq!(k[0], "L:1");
        assert_eq!(k[1], "L:1.5");
        assert_eq!(k[2], "L:1e9");
        assert_eq!(k[3], "L:0.6e9");
        assert_eq!(k[4], "L:1_000u64");
        assert_eq!(k[5], "L:0xFFu8");
        assert_eq!(k[6], "L:1.0f64");
        // 1..2 lexes as literal, two dots, literal.
        assert_eq!(&k[7..10], &["L:1", "P:.", "P:."]);
        assert_eq!(k[10], "L:2");
        // 3.max(4): the dot belongs to the method call, not the number.
        assert_eq!(&k[11..14], &["L:3", "P:.", "I:max"]);
    }

    #[test]
    fn strings_chars_and_lifetimes() {
        let ts = lex(r##""s" 'c' '\n' 'a: b"b" r"raw" r#"ra"w"# x"##);
        let k = kinds(&ts);
        assert_eq!(k[0], "L:\"s\"");
        assert_eq!(k[1], "L:'c'");
        assert_eq!(k[2], "L:'\\n'");
        assert_eq!(&k[3..5], &["P:'", "I:a"]); // lifetime
        assert_eq!(k[5], "P::");
        assert_eq!(k[6], "L:b\"b\"");
        assert_eq!(k[7], "L:r\"raw\"");
        assert_eq!(k[8], "L:r#\"ra\"w\"#");
        assert_eq!(k[9], "I:x");
    }

    #[test]
    fn raw_idents_drop_the_prefix() {
        let ts = lex("r#type r#fn plain");
        assert_eq!(kinds(&ts), vec!["I:type", "I:fn", "I:plain"]);
    }

    #[test]
    fn spacing_distinguishes_joint_ops() {
        let ts = lex("a == b = c");
        let TokenTree::Punct(p1) = &ts.tokens()[1] else {
            panic!()
        };
        let TokenTree::Punct(p2) = &ts.tokens()[2] else {
            panic!()
        };
        let TokenTree::Punct(p3) = &ts.tokens()[4] else {
            panic!()
        };
        assert_eq!(p1.spacing(), Spacing::Joint);
        assert_eq!(p2.spacing(), Spacing::Alone);
        assert_eq!(p3.spacing(), Spacing::Alone);
    }

    #[test]
    fn mismatched_delimiters_error() {
        assert!("fn f( }".parse::<TokenStream>().is_err());
        assert!("{".parse::<TokenStream>().is_err());
        assert!(")".parse::<TokenStream>().is_err());
    }

    #[test]
    fn shebang_is_ignored() {
        let ts = lex("#!/usr/bin/env run\nfn f() {}");
        assert_eq!(kinds(&ts)[0], "I:fn");
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        let ts = lex("#![allow(dead_code)]\nfn f() {}");
        assert_eq!(kinds(&ts)[0], "P:#");
    }
}
