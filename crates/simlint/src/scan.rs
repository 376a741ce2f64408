//! Token-stream utilities shared by the rules: a flattened single-level
//! view of a stream with multi-character operators reassembled from
//! adjacent punct tokens (`==`, `->`, `+=`, `::`, ...).

use crate::tokens::{Delimiter, Group, Ident, Literal, Spacing, Span, TokenTree};

/// One element of a flattened stream level. Groups stay opaque — callers
/// recurse into them explicitly.
pub(crate) enum Flat<'a> {
    Ident(&'a Ident),
    Lit(&'a Literal),
    /// An operator assembled from one or more adjacent punct characters.
    Op(String, Span),
    Group(&'a Group),
}

/// Multi-character operators, longest first so greedy munching picks the
/// right split (`<<=` before `<<` before `<`).
const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=", "&&", "||", "<<", ">>", "..",
];

/// Flatten one level of a token stream, assembling operator runs.
pub(crate) fn flatten(tokens: &[TokenTree]) -> Vec<Flat<'_>> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Ident(id) => {
                out.push(Flat::Ident(id));
                i += 1;
            }
            TokenTree::Literal(l) => {
                out.push(Flat::Lit(l));
                i += 1;
            }
            TokenTree::Group(g) => {
                out.push(Flat::Group(g));
                i += 1;
            }
            TokenTree::Punct(_) => {
                // Collect the joint run: puncts that are literally adjacent.
                let start = i;
                let mut run = String::new();
                while let Some(TokenTree::Punct(p)) = tokens.get(i) {
                    run.push(p.as_char());
                    i += 1;
                    if p.spacing() == Spacing::Alone {
                        break;
                    }
                }
                // Greedily munch known multi-char ops out of the run.
                let run_tokens = &tokens[start..i];
                let mut pos = 0usize;
                while pos < run.len() {
                    let rest = &run[pos..];
                    let op = MULTI_OPS
                        .iter()
                        .find(|m| rest.starts_with(**m))
                        .map(|m| m.to_string())
                        .unwrap_or_else(|| rest[..1].to_string());
                    let span = run_tokens[pos].span();
                    pos += op.len();
                    out.push(Flat::Op(op, span));
                }
            }
        }
    }
    out
}

/// True when the literal is float-shaped: has a decimal point or exponent
/// (and is not a hex/octal/binary literal), or an explicit f32/f64 suffix.
pub(crate) fn is_float_literal(lit: &Literal) -> bool {
    let r = lit.repr();
    if !r.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    if r.starts_with("0x") || r.starts_with("0X") || r.starts_with("0o") || r.starts_with("0b") {
        return false;
    }
    r.contains('.') || r.ends_with("f32") || r.ends_with("f64") || {
        // 1e9-style exponent.
        r.bytes().any(|b| b == b'e' || b == b'E')
    }
}

/// True when the literal is a plain integer (digits/underscores with an
/// optional integer suffix) — the `x[0]` shape `literal-index` flags.
pub(crate) fn is_int_literal(lit: &Literal) -> bool {
    let r = lit.repr();
    if !r.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    !is_float_literal(lit)
}

/// Walk backwards from `idx` (exclusive) over a path-ish chain — idents,
/// `.`/`::` separators, and call/index groups — and return the unit suffix
/// of the nearest suffixed identifier, with its name. Stops at the first
/// element that cannot extend a postfix chain, so `a + b_w` seen from `+`'s
/// left side stops at `a` without crossing the operator.
pub(crate) fn chain_suffix_back(flats: &[Flat<'_>], idx: usize) -> Option<(String, &'static str)> {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        match &flats[i] {
            Flat::Ident(id) => {
                let name = id.to_string();
                if let Some(suf) = crate::config::unit_suffix(&name) {
                    return Some((name, suf));
                }
                // `self.x_w` / `a.b.c_j`: keep walking only across a
                // separator.
                if i == 0 || !matches!(&flats[i - 1], Flat::Op(op, _) if op == "." || op == "::") {
                    return None;
                }
            }
            // Tuple indices (`p.1`) extend a chain.
            Flat::Lit(_) => {}
            Flat::Op(op, _) if op == "." || op == "::" => {}
            Flat::Group(g)
                if matches!(g.delimiter(), Delimiter::Parenthesis | Delimiter::Bracket) => {}
            _ => return None,
        }
    }
    None
}

/// Forward counterpart of [`chain_suffix_back`]: the unit suffix of the
/// nearest suffixed identifier in the postfix chain starting at `idx`
/// (`self.drawn_j`, `f(x).y_w`, `p.0.rate_hz`).
pub(crate) fn chain_suffix_fwd(flats: &[Flat<'_>], idx: usize) -> Option<(String, &'static str)> {
    let mut i = idx;
    loop {
        match flats.get(i)? {
            Flat::Ident(id) => {
                let name = id.to_string();
                if let Some(suf) = crate::config::unit_suffix(&name) {
                    return Some((name, suf));
                }
                i += 1;
            }
            // Tuple index (`.0`) or a leading literal; either way the
            // chain can keep going only through a separator.
            Flat::Lit(_) => i += 1,
            _ => return None,
        }
        // Postfix call/index groups keep the chain alive.
        while matches!(
            flats.get(i),
            Some(Flat::Group(g)) if matches!(g.delimiter(), Delimiter::Parenthesis | Delimiter::Bracket)
        ) {
            i += 1;
        }
        match flats.get(i) {
            Some(Flat::Op(op, _)) if op == "." || op == "::" => i += 1,
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::TokenStream;

    fn flats_of(src: &str) -> (TokenStream, Vec<String>) {
        let ts: TokenStream = src.parse().expect("lex");
        let rendered = flatten(ts.tokens())
            .iter()
            .map(|f| match f {
                Flat::Ident(i) => format!("I:{i}"),
                Flat::Lit(l) => format!("L:{l}"),
                Flat::Op(o, _) => format!("O:{o}"),
                Flat::Group(_) => "G".to_string(),
            })
            .collect();
        (ts, rendered)
    }

    #[test]
    fn ops_reassemble_greedily() {
        let (_ts, f) = flats_of("a == b != c -> d <= e += f :: g .. h <<= i");
        assert!(f.contains(&"O:==".to_string()));
        assert!(f.contains(&"O:!=".to_string()));
        assert!(f.contains(&"O:->".to_string()));
        assert!(f.contains(&"O:<=".to_string()));
        assert!(f.contains(&"O:+=".to_string()));
        assert!(f.contains(&"O:::".to_string()));
        assert!(f.contains(&"O:..".to_string()));
        assert!(f.contains(&"O:<<=".to_string()));
    }

    #[test]
    fn turbofish_splits_into_colons_then_angle() {
        let (_ts, f) = flats_of("x::<u32>");
        assert_eq!(f, vec!["I:x", "O:::", "O:<", "I:u32", "O:>"]);
    }

    #[test]
    fn float_literal_shapes() {
        let ts: TokenStream = "1.0 1e9 0.6e9 1.0f64 2f32 7 0xFF 1_000u64".parse().unwrap();
        let lits: Vec<bool> = ts
            .tokens()
            .iter()
            .map(|t| match t {
                TokenTree::Literal(l) => is_float_literal(l),
                _ => panic!(),
            })
            .collect();
        assert_eq!(
            lits,
            vec![true, true, true, true, true, false, false, false]
        );
    }

    #[test]
    fn chain_walks_through_self_fields() {
        let ts: TokenStream = "self . initial_mwh - self . drawn_j".parse().unwrap();
        let flats = flatten(ts.tokens());
        let op_idx = flats
            .iter()
            .position(|f| matches!(f, Flat::Op(o, _) if o == "-"))
            .unwrap();
        assert_eq!(
            chain_suffix_back(&flats, op_idx).map(|(_, s)| s),
            Some("_mwh")
        );
        assert_eq!(
            chain_suffix_fwd(&flats, op_idx + 1).map(|(_, s)| s),
            Some("_j")
        );
    }

    #[test]
    fn chain_stops_at_operators() {
        let ts: TokenStream = "a + b - c_w".parse().unwrap();
        let flats = flatten(ts.tokens());
        let minus = flats
            .iter()
            .position(|f| matches!(f, Flat::Op(o, _) if o == "-"))
            .unwrap();
        // Left of `-` is plain `b`; the walk must not cross `+` to reach
        // anything else.
        assert_eq!(chain_suffix_back(&flats, minus), None);
    }

    #[test]
    fn method_calls_preserve_the_receiver_suffix() {
        let ts: TokenStream = "a_w . abs ( ) - x_j".parse().unwrap();
        let flats = flatten(ts.tokens());
        let minus = flats
            .iter()
            .position(|f| matches!(f, Flat::Op(o, _) if o == "-"))
            .unwrap();
        assert_eq!(chain_suffix_back(&flats, minus).map(|(_, s)| s), Some("_w"));
    }
}
