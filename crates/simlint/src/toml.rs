//! A deliberately tiny TOML subset parser for `simlint.toml`.
//!
//! The container has no toml crate, and the analyzer's configuration
//! surface is flat: `[section]` headers, `key = "string"`, and
//! `key = ["a", "b"]` string arrays. Comments (`#`) and blank lines are
//! skipped; anything else is ignored rather than an error, so a config
//! typo degrades to "built-in defaults" instead of breaking the lint run.

use std::collections::BTreeMap;

/// One parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Str(String),
    List(Vec<String>),
}

/// A parsed document: section -> key -> value.
#[derive(Debug, Default)]
pub struct Doc {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

impl Doc {
    /// The string list at `[section] key`, if present.
    pub fn list(&self, section: &str, key: &str) -> Option<Vec<String>> {
        match self.sections.get(section)?.get(key)? {
            Value::List(v) => Some(v.clone()),
            Value::Str(s) => Some(vec![s.clone()]),
        }
    }

    /// The string at `[section] key`, if present.
    pub fn string(&self, section: &str, key: &str) -> Option<String> {
        match self.sections.get(section)?.get(key)? {
            Value::Str(s) => Some(s.clone()),
            Value::List(_) => None,
        }
    }
}

/// Parse the subset. Never fails; unparseable lines are skipped.
pub fn parse(text: &str) -> Doc {
    let mut doc = Doc::default();
    let mut section = String::new();
    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().to_string();
        let Some(value) = parse_value(value.trim()) else {
            continue;
        };
        doc.sections
            .entry(section.clone())
            .or_default()
            .insert(key, value);
    }
    doc
}

/// Drop a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Option<Value> {
    if let Some(inner) = v.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let items = inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .filter_map(unquote)
            .collect();
        return Some(Value::List(items));
    }
    unquote(v).map(Value::Str)
}

fn unquote(s: &str) -> Option<String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(|s| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_and_lists() {
        let doc = parse(
            "# config\n[purity]\nroots = [\"plan_compute\", \"PowerCapController::plan\"]\n\n\
             [controller]\ntraits = [\"ClusterController\"] # audited traits\nname = \"x\"\n",
        );
        assert_eq!(
            doc.list("purity", "roots"),
            Some(vec![
                "plan_compute".to_string(),
                "PowerCapController::plan".to_string()
            ])
        );
        assert_eq!(
            doc.list("controller", "traits"),
            Some(vec!["ClusterController".to_string()])
        );
        assert_eq!(doc.string("controller", "name"), Some("x".to_string()));
        assert_eq!(doc.list("missing", "key"), None);
    }

    #[test]
    fn junk_lines_are_skipped_not_fatal() {
        let doc = parse("???\n[s]\nk = not-quoted\nok = \"v\"\n");
        assert_eq!(doc.string("s", "k"), None);
        assert_eq!(doc.string("s", "ok"), Some("v".to_string()));
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let doc = parse("[s]\nk = \"a#b\"\n");
        assert_eq!(doc.string("s", "k"), Some("a#b".to_string()));
    }
}
