//! The `// simlint: allow(<rule>[, <rule>...]): <justification>` grammar.
//!
//! An allow-comment suppresses matching findings on its own line, or — when
//! it stands alone on a line — on the next line. The justification text
//! after the rule list is **mandatory**: an allow without one is itself a
//! finding (`bad-allow`), and a justified allow that suppresses nothing is
//! reported as `unused-allow` so stale escapes don't accumulate.

use std::cell::Cell;
use std::collections::HashMap as StdHashMap;

/// One parsed allow-comment.
#[derive(Debug)]
pub(crate) struct AllowEntry {
    /// The line the comment itself is on (1-based).
    pub(crate) comment_line: usize,
    /// Rule ids listed between the parentheses.
    pub(crate) rules: Vec<String>,
    /// Whether non-empty justification text followed the rule list.
    pub(crate) justified: bool,
    /// Set when the entry suppressed at least one finding.
    pub(crate) used: Cell<bool>,
}

/// All allow-comments of one file, indexed by the lines they govern.
#[derive(Debug, Default)]
pub(crate) struct AllowTable {
    entries: Vec<AllowEntry>,
    /// line -> entry indices governing that line.
    by_line: StdHashMap<usize, Vec<usize>>,
}

const MARKER: &str = "simlint:";

impl AllowTable {
    /// Scan raw source text for allow-comments.
    pub(crate) fn parse(src: &str) -> AllowTable {
        let mut table = AllowTable::default();
        for (idx, raw) in src.lines().enumerate() {
            let line_no = idx + 1;
            // Find a `//` comment start that is not inside a string: good
            // enough here — a `//` inside a string literal on a line that
            // also says `simlint: allow(` is not a case worth an escaping
            // parser.
            let Some(slash) = raw.find("//") else {
                continue;
            };
            let comment = &raw[slash + 2..];
            let Some(marker) = comment.find(MARKER) else {
                continue;
            };
            let rest = comment[marker + MARKER.len()..].trim_start();
            let Some(rest) = rest.strip_prefix("allow") else {
                continue;
            };
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix('(') else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rules: Vec<String> = rest[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let tail = rest[close + 1..]
                .trim_start_matches([':', '-', '—', ' ', '\t'])
                .trim();
            let justified = !tail.is_empty();
            let standalone = raw[..slash].trim().is_empty();
            let entry_idx = table.entries.len();
            table.entries.push(AllowEntry {
                comment_line: line_no,
                rules,
                justified,
                used: Cell::new(false),
            });
            table.by_line.entry(line_no).or_default().push(entry_idx);
            if standalone {
                // Governs the next line (the code it annotates).
                table
                    .by_line
                    .entry(line_no + 1)
                    .or_default()
                    .push(entry_idx);
            }
        }
        table
    }

    /// True when a (justified) allow for `rule` governs `line`; marks the
    /// entry used. Unjustified allows do *not* suppress — otherwise a
    /// lazy `allow()` would silence both the original finding and itself.
    pub(crate) fn suppresses(&self, line: usize, rule: &str) -> bool {
        let Some(indices) = self.by_line.get(&line) else {
            return false;
        };
        for &i in indices {
            let e = &self.entries[i];
            if e.justified && e.rules.iter().any(|r| r == rule) {
                e.used.set(true);
                return true;
            }
        }
        false
    }

    /// All parsed entries (for the `bad-allow`/`unused-allow` passes).
    pub(crate) fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_same_line_allow_with_justification() {
        let t =
            AllowTable::parse("let x = m.get(k); // simlint: allow(panic-path): guarded above\n");
        assert_eq!(t.entries().len(), 1);
        assert!(t.entries()[0].justified);
        assert!(t.suppresses(1, "panic-path"));
        assert!(t.entries()[0].used.get());
        assert!(!t.suppresses(1, "float-eq"));
    }

    #[test]
    fn standalone_allow_governs_next_line() {
        let src = "    // simlint: allow(float-eq): exact sentinel\n    if x == 1.0 {}\n";
        let t = AllowTable::parse(src);
        assert!(t.suppresses(2, "float-eq"));
    }

    #[test]
    fn unjustified_allow_does_not_suppress() {
        let t = AllowTable::parse("x(); // simlint: allow(panic-path)\n");
        assert_eq!(t.entries().len(), 1);
        assert!(!t.entries()[0].justified);
        assert!(!t.suppresses(1, "panic-path"));
    }

    #[test]
    fn multiple_rules_in_one_allow() {
        let t = AllowTable::parse("y(); // simlint: allow(panic-path, float-eq): both fine here\n");
        assert!(t.suppresses(1, "panic-path"));
        assert!(t.suppresses(1, "float-eq"));
    }

    #[test]
    fn em_dash_separator_accepted() {
        let t = AllowTable::parse("z(); // simlint: allow(unit-mix) — converted on the spot\n");
        assert!(t.suppresses(1, "unit-mix"));
    }

    #[test]
    fn non_allow_simlint_comments_ignored() {
        let t = AllowTable::parse("// simlint: this is prose, not a directive\n");
        assert!(t.entries().is_empty());
    }
}
