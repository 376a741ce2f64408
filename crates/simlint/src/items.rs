//! The shallow item parser: [`parse_file`] turns a token tree into a
//! [`File`] of [`Item`]s. Its shape follows `syn`, but it is written here
//! because the build has no crates.io access.
//!
//! "Shallow" means item *structure* is parsed — attributes, visibility,
//! function signatures (name, inputs, return type), struct/enum fields
//! (name, type), module nesting, impl/trait bodies — while everything
//! expression-shaped stays a raw [`TokenStream`]. That is exactly the
//! altitude a token-pattern linter works at: rules that need declaration
//! context (field types, `#[must_use]`, `#[cfg(test)]` extents) read the
//! items; rules that pattern-match expressions scan the streams.
//!
//! Anything this parser does not recognize becomes [`Item::Verbatim`]
//! rather than an error, so novel syntax degrades to "still scanned for
//! token patterns" instead of breaking the lint.

use crate::tokens::{Delimiter, Group, Ident, LexError, TokenStream, TokenTree};

/// One outer `#[...]` attribute. The stream is the tokens
/// *inside* the brackets: `cfg(test)`, `must_use`, `derive(Debug)`, ...
#[derive(Debug, Clone)]
pub struct Attribute {
    pub tokens: TokenStream,
}

impl Attribute {
    /// First ident of the attribute — its "path" for the common one-segment
    /// case (`test`, `cfg`, `must_use`, `derive`).
    pub fn path_ident(&self) -> Option<String> {
        match self.tokens.tokens().first() {
            Some(TokenTree::Ident(i)) => Some(i.to_string()),
            _ => None,
        }
    }

    /// True when the attribute mentions `test` under a `cfg` path:
    /// `#[cfg(test)]`, `#[cfg(any(test, feature = "x"))]`.
    pub fn is_cfg_test(&self) -> bool {
        if self.path_ident().as_deref() != Some("cfg") {
            return false;
        }
        stream_mentions_ident(&self.tokens, "test")
    }

    /// True for `#[test]` (and the nightly `#[bench]`).
    pub fn is_test_marker(&self) -> bool {
        matches!(self.path_ident().as_deref(), Some("test" | "bench"))
    }

    /// True for `#[must_use]` (with or without a message).
    pub fn is_must_use(&self) -> bool {
        self.path_ident().as_deref() == Some("must_use")
    }
}

fn stream_mentions_ident(stream: &TokenStream, name: &str) -> bool {
    stream.tokens().iter().any(|t| match t {
        TokenTree::Ident(i) => *i == name,
        TokenTree::Group(g) => stream_mentions_ident(g.stream(), name),
        _ => false,
    })
}

/// Item visibility. Only the distinction the analyzer needs: `pub`
/// (including `pub(crate)` etc.) vs. private.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    Public,
    Inherited,
}

/// A function signature: `fn name(<inputs>) -> <output>`.
#[derive(Debug, Clone)]
pub struct Signature {
    pub ident: Ident,
    /// Tokens between the parentheses of the parameter list.
    pub inputs: TokenStream,
    /// Tokens after `->` (empty stream when the return type is `()`).
    pub output: TokenStream,
}

impl Signature {
    /// True when the first parameter is a `self` receiver: `self`,
    /// `mut self`, `&self`, `&mut self`, `&'a self`, or `self: Pin<...>`.
    pub fn takes_self(&self) -> bool {
        let Some(first) = split_top_level_commas(&self.inputs).into_iter().next() else {
            return false;
        };
        let mut after_tick = false;
        for t in &first {
            match t {
                TokenTree::Punct(p) if p.as_char() == '&' => {}
                TokenTree::Punct(p) if p.as_char() == '\'' => after_tick = true,
                // The lifetime name is not the receiver.
                TokenTree::Ident(_) if after_tick => after_tick = false,
                TokenTree::Ident(i) if *i == "mut" => {}
                TokenTree::Ident(i) => return *i == "self",
                _ => return false,
            }
        }
        false
    }
}

/// A `fn` item (free function, method, or trait method).
#[derive(Debug, Clone)]
pub struct ItemFn {
    pub attrs: Vec<Attribute>,
    pub vis: Visibility,
    pub sig: Signature,
    /// The body's brace group; `None` for trait method declarations.
    pub body: Option<Group>,
}

/// One named field of a struct or enum variant (tuple fields get no ident).
#[derive(Debug, Clone)]
pub struct Field {
    pub ident: Option<Ident>,
    pub ty: TokenStream,
}

/// A `struct` item.
#[derive(Debug, Clone)]
pub struct ItemStruct {
    pub attrs: Vec<Attribute>,
    pub ident: Ident,
    pub fields: Vec<Field>,
}

/// One variant of an enum, with any fields it declares.
#[derive(Debug, Clone)]
pub struct Variant {
    pub fields: Vec<Field>,
}

/// An `enum` item.
#[derive(Debug, Clone)]
pub struct ItemEnum {
    pub attrs: Vec<Attribute>,
    pub ident: Ident,
    pub variants: Vec<Variant>,
}

/// A `mod` item; `content` is `None` for out-of-line `mod foo;`.
#[derive(Debug, Clone)]
pub struct ItemMod {
    pub attrs: Vec<Attribute>,
    pub content: Option<Vec<Item>>,
}

/// An `impl` block; `header` is everything between `impl` and the body.
#[derive(Debug, Clone)]
pub struct ItemImpl {
    pub attrs: Vec<Attribute>,
    pub header: TokenStream,
    pub items: Vec<Item>,
}

impl ItemImpl {
    /// The ident of the implemented-for type: `Foo` in `impl Foo`,
    /// `impl<T> Foo<T>`, and `impl Trait for Foo`. For path types the last
    /// segment before any generics is returned.
    pub fn self_ty_ident(&self) -> Option<String> {
        let (trait_part, self_part) = self.split_header();
        let _ = trait_part;
        last_path_segment(&self_part)
    }

    /// For `impl Trait for Type`, the trait's last path segment
    /// (`ClusterController` in `impl dvfs::ClusterController for X`);
    /// `None` for inherent impls.
    pub fn trait_ident(&self) -> Option<String> {
        let (trait_part, _) = self.split_header();
        last_path_segment(&trait_part?)
    }

    /// Split the header into (trait tokens, self-type tokens). Leading
    /// generics and a trailing `where` clause are stripped.
    fn split_header(&self) -> (Option<Vec<TokenTree>>, Vec<TokenTree>) {
        let tokens = self.header.tokens();
        let mut i = 0usize;
        // Strip leading `<...>` generics (angle matching; `->` never
        // appears before the generic run closes at depth 0).
        if matches!(tokens.first(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            let mut depth = 0i32;
            let mut prev_dash = false;
            while i < tokens.len() {
                if let TokenTree::Punct(p) = &tokens[i] {
                    let c = p.as_char();
                    if c == '<' {
                        depth += 1;
                    } else if c == '>' && !prev_dash {
                        depth -= 1;
                    }
                    prev_dash = c == '-';
                } else {
                    prev_dash = false;
                }
                i += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        // Split on a top-level `for` keyword (skipping HRTB `for<...>`)
        // and stop at `where`.
        let mut trait_part: Option<Vec<TokenTree>> = None;
        let mut current = Vec::new();
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Ident(id) if *id == "where" => break,
                TokenTree::Ident(id)
                    if *id == "for"
                        && !matches!(
                            tokens.get(i + 1),
                            Some(TokenTree::Punct(p)) if p.as_char() == '<'
                        ) =>
                {
                    trait_part = Some(std::mem::take(&mut current));
                    i += 1;
                }
                t => {
                    current.push(t.clone());
                    i += 1;
                }
            }
        }
        (trait_part, current)
    }
}

/// The last `::`-separated path segment before any `<` generics:
/// `dvfs::cluster::Decision<T>` -> `Decision`. Leading `&`/`dyn`/`mut`
/// are skipped.
fn last_path_segment(tokens: &[TokenTree]) -> Option<String> {
    let mut last = None;
    for t in tokens {
        match t {
            TokenTree::Ident(i) if *i == "dyn" || *i == "mut" => {}
            TokenTree::Ident(i) => last = Some(i.to_string()),
            TokenTree::Punct(p) if p.as_char() == ':' || p.as_char() == '&' => {}
            TokenTree::Punct(p) if p.as_char() == '<' => break,
            _ => break,
        }
    }
    last
}

/// A `trait` definition; `header` is everything between `trait` and the
/// body (name, generics, supertraits).
#[derive(Debug, Clone)]
pub struct ItemTrait {
    pub attrs: Vec<Attribute>,
    pub header: TokenStream,
    pub items: Vec<Item>,
}

impl ItemTrait {
    /// The trait's name: the first ident of the header.
    pub fn ident(&self) -> Option<String> {
        match self.header.tokens().first() {
            Some(TokenTree::Ident(i)) => Some(i.to_string()),
            _ => None,
        }
    }
}

/// Any item the shallow parser models, plus `Verbatim` for the rest
/// (`use`, `const`, `static`, `type`, macro definitions/invocations,
/// `extern` blocks).
#[derive(Debug, Clone)]
pub enum Item {
    Fn(ItemFn),
    Struct(ItemStruct),
    Enum(ItemEnum),
    Mod(ItemMod),
    Impl(ItemImpl),
    Trait(ItemTrait),
    Verbatim(VerbatimItem),
}

/// An unmodeled item: its attributes and raw tokens.
#[derive(Debug, Clone)]
pub struct VerbatimItem {
    pub attrs: Vec<Attribute>,
    pub tokens: TokenStream,
}

impl Item {
    /// The item's outer attributes.
    pub fn attrs(&self) -> &[Attribute] {
        match self {
            Item::Fn(i) => &i.attrs,
            Item::Struct(i) => &i.attrs,
            Item::Enum(i) => &i.attrs,
            Item::Mod(i) => &i.attrs,
            Item::Impl(i) => &i.attrs,
            Item::Trait(i) => &i.attrs,
            Item::Verbatim(i) => &i.attrs,
        }
    }
}

/// A parsed source file.
#[derive(Debug, Clone)]
pub struct File {
    pub items: Vec<Item>,
}

/// Parse a whole source file.
pub fn parse_file(src: &str) -> Result<File, LexError> {
    let stream: TokenStream = src.parse()?;
    let items = Parser {
        tokens: stream.tokens(),
        pos: 0,
    }
    .parse_items();
    Ok(File { items })
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    tokens: &'a [TokenTree],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a TokenTree> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'a TokenTree> {
        self.tokens.get(self.pos + off)
    }

    fn bump(&mut self) -> Option<&'a TokenTree> {
        let t = self.tokens.get(self.pos)?;
        self.pos += 1;
        Some(t)
    }

    fn peek_punct(&self, ch: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ch)
    }

    fn peek_ident(&self) -> Option<&'a Ident> {
        match self.peek() {
            Some(TokenTree::Ident(i)) => Some(i),
            _ => None,
        }
    }

    /// Parse a run of items until end of input, skipping inner
    /// (`#![...]`) attributes.
    fn parse_items(&mut self) -> Vec<Item> {
        let mut items = Vec::new();
        while self.peek().is_some() {
            if self.peek_punct('#') {
                if let (Some(TokenTree::Punct(bang)), Some(TokenTree::Group(g))) =
                    (self.peek_at(1), self.peek_at(2))
                {
                    if bang.as_char() == '!' && g.delimiter() == Delimiter::Bracket {
                        self.pos += 3;
                        continue;
                    }
                }
            }
            items.push(self.parse_item());
        }
        items
    }

    fn parse_item(&mut self) -> Item {
        let attrs = self.parse_outer_attrs();
        let vis = self.parse_visibility();
        // Qualifiers that may precede `fn`.
        let mut qual = 0usize;
        while let Some(i) = self.peek_ident() {
            let s = i.to_string();
            if matches!(s.as_str(), "const" | "async" | "unsafe" | "extern") {
                // `const` might start a const *item*; only treat it as a fn
                // qualifier when a later token is `fn`.
                if !self.fn_follows_qualifiers() {
                    break;
                }
                self.bump();
                // `extern "C"`.
                if s == "extern" {
                    if let Some(TokenTree::Literal(_)) = self.peek() {
                        self.bump();
                    }
                }
                qual += 1;
                if qual > 4 {
                    break;
                }
                continue;
            }
            break;
        }
        let Some(keyword) = self.peek_ident().map(|i| i.to_string()) else {
            // Not an item-shaped sequence; swallow as verbatim.
            return self.verbatim_from(attrs);
        };
        match keyword.as_str() {
            "fn" => self.parse_fn(attrs, vis),
            "struct" => self.parse_struct(attrs),
            "enum" => self.parse_enum(attrs),
            "mod" => self.parse_mod(attrs),
            "impl" => self.parse_impl(attrs),
            "trait" => self.parse_trait(attrs),
            _ => self.verbatim_from(attrs),
        }
    }

    /// After optional qualifiers, does an `fn` keyword follow within the
    /// next few tokens? Distinguishes `const fn f()` from `const X: u32`.
    fn fn_follows_qualifiers(&self) -> bool {
        for off in 0..5 {
            match self.peek_at(off) {
                Some(TokenTree::Ident(i)) => {
                    let s = i.to_string();
                    if s == "fn" {
                        return true;
                    }
                    if !matches!(s.as_str(), "const" | "async" | "unsafe" | "extern") {
                        return false;
                    }
                }
                Some(TokenTree::Literal(_)) => continue, // extern "C"
                _ => return false,
            }
        }
        false
    }

    fn parse_outer_attrs(&mut self) -> Vec<Attribute> {
        let mut attrs = Vec::new();
        while self.peek_punct('#') {
            if let Some(TokenTree::Group(g)) = self.peek_at(1) {
                if g.delimiter() == Delimiter::Bracket {
                    attrs.push(Attribute {
                        tokens: g.stream().clone(),
                    });
                    self.pos += 2;
                    continue;
                }
            }
            break;
        }
        attrs
    }

    fn parse_visibility(&mut self) -> Visibility {
        if let Some(i) = self.peek_ident() {
            if *i == "pub" {
                self.bump();
                // `pub(crate)`, `pub(super)`, `pub(in path)`.
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.bump();
                    }
                }
                return Visibility::Public;
            }
        }
        Visibility::Inherited
    }

    /// Skip a balanced `<...>` generics run if one starts here. `>` closes
    /// one level unless it is part of `->` (tracked via the previous punct).
    fn skip_generics(&mut self) {
        if !self.peek_punct('<') {
            return;
        }
        let mut depth = 0i32;
        let mut prev_dash = false;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) => {
                    let c = p.as_char();
                    if c == '<' {
                        depth += 1;
                    } else if c == '>' && !prev_dash {
                        depth -= 1;
                    }
                    prev_dash = c == '-';
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                _ => {
                    prev_dash = false;
                    self.bump();
                }
            }
        }
    }

    /// Consume tokens until (and including) a top-level `;`, or including a
    /// top-level brace group (macro/extern bodies), and wrap the item.
    fn verbatim_from(&mut self, attrs: Vec<Attribute>) -> Item {
        let body_start = self.pos;
        while let Some(t) = self.bump() {
            match t {
                TokenTree::Punct(p) if p.as_char() == ';' => break,
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                    // `macro_rules! name { ... }` and `extern { ... }` end
                    // with a brace group; `const X: [u8; 2] = f({ 1 });`
                    // does not end at an *embedded* group, but embedded
                    // brace groups at the item's top level only occur in
                    // expression position after `=`, so only stop when no
                    // `=` was seen.
                    let saw_eq = self.tokens[body_start..self.pos - 1]
                        .iter()
                        .any(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == '='));
                    if !saw_eq {
                        break;
                    }
                }
                _ => {}
            }
        }
        Item::Verbatim(VerbatimItem {
            tokens: TokenStream::from(self.tokens[body_start..self.pos].to_vec()),
            attrs,
        })
    }

    fn parse_fn(&mut self, attrs: Vec<Attribute>, vis: Visibility) -> Item {
        self.bump(); // `fn`
        let Some(TokenTree::Ident(name)) = self.bump() else {
            return self.verbatim_from(attrs);
        };
        let ident = name.clone();
        self.skip_generics();
        let inputs = match self.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let s = g.stream().clone();
                self.bump();
                s
            }
            _ => return self.verbatim_from(attrs),
        };
        // Return type: tokens after `->` up to the body brace, a `where`
        // clause, or a terminating `;`.
        let mut output: Vec<TokenTree> = Vec::new();
        let mut saw_arrow = false;
        let mut body = None;
        loop {
            match self.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    body = Some(g.clone());
                    self.bump();
                    break;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                    self.bump();
                    break;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '-' => {
                    if let Some(TokenTree::Punct(gt)) = self.peek_at(1) {
                        if gt.as_char() == '>' {
                            self.pos += 2;
                            saw_arrow = true;
                            continue;
                        }
                    }
                    self.bump();
                }
                Some(TokenTree::Ident(i)) if *i == "where" => {
                    // Stop collecting the return type; skip the where
                    // clause up to the body / semicolon.
                    saw_arrow = false;
                    self.bump();
                }
                Some(t) => {
                    if saw_arrow {
                        output.push(t.clone());
                    }
                    self.bump();
                }
                None => break,
            }
        }
        Item::Fn(ItemFn {
            attrs,
            vis,
            sig: Signature {
                ident,
                inputs,
                output: TokenStream::from(output),
            },
            body,
        })
    }

    fn parse_struct(&mut self, attrs: Vec<Attribute>) -> Item {
        self.bump(); // `struct`
        let Some(TokenTree::Ident(name)) = self.bump() else {
            return self.verbatim_from(attrs);
        };
        let ident = name.clone();
        self.skip_generics();
        // Skip a where clause if present.
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Group(_) => break,
                TokenTree::Punct(p) if p.as_char() == ';' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let fields = match self.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream());
                self.bump();
                f
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let f = parse_tuple_fields(g.stream());
                self.bump();
                if self.peek_punct(';') {
                    self.bump();
                }
                f
            }
            _ => {
                if self.peek_punct(';') {
                    self.bump();
                }
                Vec::new()
            }
        };
        Item::Struct(ItemStruct {
            attrs,
            ident,
            fields,
        })
    }

    fn parse_enum(&mut self, attrs: Vec<Attribute>) -> Item {
        self.bump(); // `enum`
        let Some(TokenTree::Ident(name)) = self.bump() else {
            return self.verbatim_from(attrs);
        };
        let ident = name.clone();
        self.skip_generics();
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break,
                _ => {
                    self.bump();
                }
            }
        }
        let mut variants = Vec::new();
        if let Some(TokenTree::Group(g)) = self.peek() {
            let body: Vec<TokenTree> = g.stream().tokens().to_vec();
            self.bump();
            let mut i = 0usize;
            while i < body.len() {
                // Skip attributes on the variant.
                while matches!(&body[i..], [TokenTree::Punct(p), TokenTree::Group(_), ..] if p.as_char() == '#')
                {
                    i += 2;
                }
                if !matches!(body.get(i), Some(TokenTree::Ident(_))) {
                    i += 1;
                    continue;
                }
                i += 1;
                let mut fields = Vec::new();
                if let Some(TokenTree::Group(fg)) = body.get(i) {
                    fields = match fg.delimiter() {
                        Delimiter::Brace => parse_named_fields(fg.stream()),
                        Delimiter::Parenthesis => parse_tuple_fields(fg.stream()),
                        _ => Vec::new(),
                    };
                    i += 1;
                }
                // Skip a `= discriminant` and the trailing comma.
                while i < body.len() {
                    if matches!(&body[i], TokenTree::Punct(p) if p.as_char() == ',') {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                variants.push(Variant { fields });
            }
        }
        Item::Enum(ItemEnum {
            attrs,
            ident,
            variants,
        })
    }

    fn parse_mod(&mut self, attrs: Vec<Attribute>) -> Item {
        self.bump(); // `mod`
        let Some(TokenTree::Ident(_)) = self.bump() else {
            return self.verbatim_from(attrs);
        };
        let content = match self.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                self.bump();
                Some(parse_body(g))
            }
            _ => {
                if self.peek_punct(';') {
                    self.bump();
                }
                None
            }
        };
        Item::Mod(ItemMod { attrs, content })
    }

    fn parse_impl(&mut self, attrs: Vec<Attribute>) -> Item {
        self.bump(); // `impl`
        let header_start = self.pos;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break,
                TokenTree::Punct(p) if p.as_char() == ';' => {
                    self.bump();
                    return self.verbatim_from(attrs);
                }
                _ => {
                    self.bump();
                }
            }
        }
        let header = TokenStream::from(self.tokens[header_start..self.pos].to_vec());
        let items = match self.peek() {
            Some(TokenTree::Group(g)) => {
                self.bump();
                parse_body(g)
            }
            _ => Vec::new(),
        };
        Item::Impl(ItemImpl {
            attrs,
            header,
            items,
        })
    }

    fn parse_trait(&mut self, attrs: Vec<Attribute>) -> Item {
        self.bump(); // `trait`
        let header_start = self.pos;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break,
                _ => {
                    self.bump();
                }
            }
        }
        let header = TokenStream::from(self.tokens[header_start..self.pos].to_vec());
        let items = match self.peek() {
            Some(TokenTree::Group(g)) => {
                self.bump();
                parse_body(g)
            }
            _ => Vec::new(),
        };
        Item::Trait(ItemTrait {
            attrs,
            header,
            items,
        })
    }
}

/// The items inside a `mod`/`impl`/`trait` body's brace group.
fn parse_body(body: &Group) -> Vec<Item> {
    Parser {
        tokens: body.stream().tokens(),
        pos: 0,
    }
    .parse_items()
}

/// Split `name: Type, name: Type` field lists (struct bodies, enum struct
/// variants). Commas inside groups or generics do not split.
fn parse_named_fields(stream: &TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    for part in split_top_level_commas(stream) {
        let mut i = 0usize;
        // Skip attributes.
        while matches!(&part[i..], [TokenTree::Punct(p), TokenTree::Group(_), ..] if p.as_char() == '#')
        {
            i += 2;
        }
        i += skip_visibility(&part[i..]);
        let Some(TokenTree::Ident(name)) = part.get(i) else {
            continue;
        };
        let ident = name.clone();
        i += 1;
        if !matches!(part.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
            continue;
        }
        i += 1;
        let ty: Vec<TokenTree> = part[i..].to_vec();
        if ty.is_empty() {
            continue;
        }
        fields.push(Field {
            ident: Some(ident),
            ty: TokenStream::from(ty),
        });
    }
    fields
}

/// The number of tokens a leading `pub` / `pub(...)` takes up.
fn skip_visibility(part: &[TokenTree]) -> usize {
    match part {
        [TokenTree::Ident(id), TokenTree::Group(g), ..]
            if *id == "pub" && g.delimiter() == Delimiter::Parenthesis =>
        {
            2
        }
        [TokenTree::Ident(id), ..] if *id == "pub" => 1,
        _ => 0,
    }
}

/// Tuple-struct / tuple-variant fields: `Type, Type`.
fn parse_tuple_fields(stream: &TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    for part in split_top_level_commas(stream) {
        let mut i = 0usize;
        while matches!(&part[i..], [TokenTree::Punct(p), TokenTree::Group(_), ..] if p.as_char() == '#')
        {
            i += 2;
        }
        i += skip_visibility(&part[i..]);
        let ty: Vec<TokenTree> = part[i..].to_vec();
        if ty.is_empty() {
            continue;
        }
        fields.push(Field {
            ident: None,
            ty: TokenStream::from(ty),
        });
    }
    fields
}

/// Split a stream on commas that are not nested inside `<...>` generics
/// (groups nest naturally as single tokens). The model and unit-flow
/// pass split parameter and argument lists with it too.
pub fn split_top_level_commas(stream: &TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = Vec::new();
    let mut current = Vec::new();
    let mut angle = 0i32;
    let mut prev_dash = false;
    for t in stream.tokens() {
        if let TokenTree::Punct(p) = t {
            let c = p.as_char();
            match c {
                '<' => angle += 1,
                '>' if !prev_dash && angle > 0 => angle -= 1,
                ',' if angle == 0 => {
                    prev_dash = false;
                    if !current.is_empty() {
                        parts.push(std::mem::take(&mut current));
                    }
                    continue;
                }
                _ => {}
            }
            prev_dash = c == '-';
        } else {
            prev_dash = false;
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        parts.push(current);
    }
    parts
}

/// Split a token run on top-level `;`. Inside a function body's brace
/// group this yields statements: semicolons nested in inner groups
/// (blocks, array types, closures' bodies) don't split because groups are
/// single tokens. The final expression (no trailing `;`) is its own part.
pub fn split_top_level_semis(stream: &TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = Vec::new();
    let mut current = Vec::new();
    for t in stream.tokens() {
        if matches!(t, TokenTree::Punct(p) if p.as_char() == ';') {
            if !current.is_empty() {
                parts.push(std::mem::take(&mut current));
            }
            continue;
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        parts.push(current);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> File {
        parse_file(src).expect("parse")
    }

    #[test]
    fn parses_functions_with_sig_parts() {
        let f = file("pub fn thread_count_with(jobs: usize, ov: Option<usize>) -> usize { jobs }");
        let [Item::Fn(func)] = &f.items[..] else {
            panic!("expected one fn, got {:?}", f.items);
        };
        assert_eq!(func.vis, Visibility::Public);
        assert_eq!(func.sig.ident.to_string(), "thread_count_with");
        assert!(func.body.is_some());
        assert_eq!(func.sig.output.tokens().len(), 1);
        // Two comma-separated params.
        assert_eq!(split_top_level_commas(&func.sig.inputs).len(), 2);
    }

    #[test]
    fn parses_struct_fields_with_types() {
        let f = file("pub struct P { pub base_w: f64, freq_hz: f64, tag: Vec<u8> }");
        let [Item::Struct(s)] = &f.items[..] else {
            panic!("expected struct");
        };
        assert_eq!(s.ident.to_string(), "P");
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0].ident.as_ref().unwrap().to_string(), "base_w");
        assert_eq!(s.fields[1].ident.as_ref().unwrap().to_string(), "freq_hz");
        let ty: Vec<String> = s.fields[2]
            .ty
            .tokens()
            .iter()
            .map(|t| format!("{t:?}"))
            .collect();
        assert!(ty[0].contains("Vec"), "{ty:?}");
    }

    #[test]
    fn parses_enum_variants_with_named_fields() {
        let f =
            file("pub enum Fault { DvfsLatency { after_s: f64 }, Stuck(u64), Plain, Valued = 3 }");
        let [Item::Enum(e)] = &f.items[..] else {
            panic!("expected enum");
        };
        assert_eq!(e.variants.len(), 4);
        assert_eq!(
            e.variants[0].fields[0].ident.as_ref().unwrap().to_string(),
            "after_s"
        );
        assert_eq!(e.variants[1].fields.len(), 1);
    }

    #[test]
    fn cfg_test_mod_nests_items() {
        let f = file("#[cfg(test)] mod tests { use super::*; #[test] fn t() { x.unwrap(); } }");
        let [Item::Mod(m)] = &f.items[..] else {
            panic!("expected mod");
        };
        assert!(m.attrs[0].is_cfg_test());
        let items = m.content.as_ref().unwrap();
        assert_eq!(items.len(), 2); // the use (verbatim) and the fn
        let Item::Fn(t) = &items[1] else {
            panic!("expected fn");
        };
        assert!(t.attrs[0].is_test_marker());
    }

    #[test]
    fn impl_blocks_contain_methods() {
        let f = file(
            "impl<T: Clone> Foo<T> where T: Send { pub fn get(&self) -> Result<T, E> { x } fn p(&mut self, v_mw: f64) {} }",
        );
        let [Item::Impl(im)] = &f.items[..] else {
            panic!("expected impl");
        };
        assert_eq!(im.items.len(), 2);
        let Item::Fn(get) = &im.items[0] else {
            panic!()
        };
        assert_eq!(get.sig.ident.to_string(), "get");
        let out: String = get
            .sig
            .output
            .tokens()
            .iter()
            .map(|t| match t {
                TokenTree::Ident(i) => i.to_string(),
                TokenTree::Punct(p) => p.as_char().to_string(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(out, "Result<T,E>");
    }

    #[test]
    fn trait_methods_without_bodies_parse() {
        let f = file("pub trait Governor { fn decide(&mut self, util: f64) -> u32; fn name(&self) -> &str { \"g\" } }");
        let [Item::Trait(tr)] = &f.items[..] else {
            panic!("expected trait");
        };
        assert_eq!(tr.items.len(), 2);
        let Item::Fn(decide) = &tr.items[0] else {
            panic!()
        };
        assert!(decide.body.is_none());
        let Item::Fn(name) = &tr.items[1] else {
            panic!()
        };
        assert!(name.body.is_some());
    }

    #[test]
    fn use_const_static_macros_become_verbatim() {
        let f = file(
            "use std::collections::HashMap;\nconst N: usize = 4;\nstatic S: &str = \"x\";\nmacro_rules! m { () => {} }",
        );
        assert_eq!(f.items.len(), 4);
        for item in &f.items {
            assert!(matches!(item, Item::Verbatim(_)), "{item:?}");
        }
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let f = file("pub const fn zero() -> u64 { 0 } const K: u64 = 1;");
        assert!(matches!(f.items[0], Item::Fn(_)));
        assert!(matches!(f.items[1], Item::Verbatim(_)));
    }

    #[test]
    fn file_level_inner_attrs_are_skipped() {
        let f = file("#![allow(dead_code)]\nfn f() {}");
        assert_eq!(f.items.len(), 1);
    }

    #[test]
    fn where_clause_does_not_pollute_return_type() {
        let f = file("fn f<T>(x: T) -> Vec<T> where T: Clone { vec![] }");
        let [Item::Fn(func)] = &f.items[..] else {
            panic!()
        };
        let out: String = func
            .sig
            .output
            .tokens()
            .iter()
            .map(|t| match t {
                TokenTree::Ident(i) => i.to_string(),
                TokenTree::Punct(p) => p.as_char().to_string(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(out, "Vec<T>");
    }

    #[test]
    fn receivers_are_recognized_in_every_self_mode() {
        let src = "impl X {
            fn a(&self) {}
            fn b(&mut self, v: u32) {}
            fn c(self) {}
            fn d(mut self) {}
            fn e(&'a self) {}
            fn f(x: u32) {}
            fn g() {}
        }";
        let f = file(src);
        let [Item::Impl(im)] = &f.items[..] else {
            panic!("expected impl");
        };
        let takes_self: Vec<bool> = im
            .items
            .iter()
            .map(|item| {
                let Item::Fn(func) = item else { panic!() };
                func.sig.takes_self()
            })
            .collect();
        assert_eq!(takes_self, [true, true, true, true, true, false, false]);
    }

    #[test]
    fn impl_headers_expose_trait_and_self_type() {
        let f = file("impl ClusterController for PowerCapController { }");
        let [Item::Impl(im)] = &f.items[..] else {
            panic!()
        };
        assert_eq!(im.trait_ident().as_deref(), Some("ClusterController"));
        assert_eq!(im.self_ty_ident().as_deref(), Some("PowerCapController"));

        let f = file("impl<T: Clone> Foo<T> where T: Send { }");
        let [Item::Impl(im)] = &f.items[..] else {
            panic!()
        };
        assert_eq!(im.trait_ident(), None);
        assert_eq!(im.self_ty_ident().as_deref(), Some("Foo"));

        let f = file("impl std::fmt::Display for net::Flow<'_> { }");
        let [Item::Impl(im)] = &f.items[..] else {
            panic!()
        };
        assert_eq!(im.trait_ident().as_deref(), Some("Display"));
        assert_eq!(im.self_ty_ident().as_deref(), Some("Flow"));
    }

    #[test]
    fn trait_header_exposes_name() {
        let f = file("pub trait Governor: Send { fn decide(&mut self); }");
        let [Item::Trait(tr)] = &f.items[..] else {
            panic!()
        };
        assert_eq!(tr.ident().as_deref(), Some("Governor"));
    }

    #[test]
    fn statements_split_on_top_level_semis_only() {
        let f = file("fn f() { let a = [0u8; 4]; if x { y(); } let b = a; b }");
        let [Item::Fn(func)] = &f.items[..] else {
            panic!()
        };
        let body = func.body.as_ref().unwrap();
        let stmts = split_top_level_semis(body.stream());
        // `[0u8; 4]` and `y();` are nested; the tail expression `b` is its
        // own statement. `if x { ... } let b` lands in one part because the
        // if-block has no separating semi — acceptable at this altitude.
        assert_eq!(stmts.len(), 3);
        assert!(matches!(&stmts[0][0], TokenTree::Ident(i) if *i == "let"));
        assert!(matches!(&stmts[2][0], TokenTree::Ident(i) if *i == "b"));
    }

    #[test]
    fn generic_fn_with_arrow_in_bounds() {
        let f = file("fn apply<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }");
        let [Item::Fn(func)] = &f.items[..] else {
            panic!()
        };
        assert_eq!(func.sig.ident.to_string(), "apply");
        // The Fn(u32) -> u32 arrow must not terminate generics early: the
        // inputs must be the real parameter list.
        assert!(matches!(
            func.sig.inputs.tokens().first(),
            Some(TokenTree::Ident(i)) if *i == "f"
        ));
    }
}
