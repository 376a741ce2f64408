//! The workspace model the dataflow rules run on: a symbol table of every
//! function in the in-scope crates, with receivers, parameter units, and
//! bodies.
//!
//! Resolution is name-based and deliberately conservative (the shallow
//! item parser has no type inference): a method call resolves through a
//! parameter receiver's *declared* type when it is knowable, or else to
//! the workspace's only method of that name. The unit-flow pass skips
//! calls that stay ambiguous, so it errs toward silence rather than
//! noise.

use std::collections::BTreeMap;

use crate::config::unit_suffix;
use crate::items::{split_top_level_commas, Attribute, Item, ItemFn};
use crate::tokens::{Group, TokenTree};

/// One function parameter (excluding `self`).
#[derive(Debug, Clone)]
pub(crate) struct Param {
    pub(crate) name: String,
    /// Unit suffix carried by the parameter name (`power_w` -> `_w`).
    pub(crate) unit: Option<&'static str>,
    /// Last path segment of the declared type (`&Node` -> `Node`,
    /// `Vec<f64>` -> `Vec`), when it is a plain path type.
    pub(crate) ty_name: Option<String>,
}

/// One function in the workspace.
#[derive(Debug)]
pub(crate) struct FnNode {
    pub(crate) file: String,
    pub(crate) line: usize,
    pub(crate) column: usize,
    pub(crate) name: String,
    /// Enclosing impl's self type, for methods.
    pub(crate) self_ty: Option<String>,
    /// True for methods that take a `self` receiver.
    pub(crate) takes_self: bool,
    pub(crate) params: Vec<Param>,
    /// Unit suffix carried by the function name (`total_j` -> `_j`).
    pub(crate) ret_unit: Option<&'static str>,
    pub(crate) is_test: bool,
    pub(crate) body: Option<Group>,
}

/// One `impl` block (the controller-discipline rules read these).
#[derive(Debug)]
pub(crate) struct ImplNode {
    pub(crate) self_ty: Option<String>,
    pub(crate) trait_name: Option<String>,
    /// Indices into [`Workspace::fns`] for the methods defined here.
    pub(crate) methods: Vec<usize>,
}

/// The whole-workspace symbol table.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    pub(crate) fns: Vec<FnNode>,
    pub(crate) impls: Vec<ImplNode>,
    /// name -> fn indices (methods and free functions alike).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (self_ty, name) -> fn indices.
    by_ty_name: BTreeMap<(String, String), Vec<usize>>,
}

impl Workspace {
    /// Build the model from parsed files (`(rel_path, parsed)` pairs;
    /// files that failed to parse are simply absent from the model).
    pub(crate) fn build(files: &[(String, Option<crate::items::File>)]) -> Workspace {
        let mut ws = Workspace::default();
        for (rel, parsed) in files {
            let Some(file) = parsed else { continue };
            let file_test = crate::rules::path_is_test(rel);
            ws.collect_items(rel, &file.items, None, file_test);
        }
        for (i, f) in ws.fns.iter().enumerate() {
            ws.by_name.entry(f.name.clone()).or_default().push(i);
            if let Some(ty) = &f.self_ty {
                ws.by_ty_name
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
        ws
    }

    /// All functions named `name`.
    pub(crate) fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All methods `ty::name`.
    pub(crate) fn methods_of(&self, ty: &str, name: &str) -> &[usize] {
        self.by_ty_name
            .get(&(ty.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn collect_items(&mut self, rel: &str, items: &[Item], self_ty: Option<&str>, in_test: bool) {
        for item in items {
            let item_test = in_test || attrs_mark_test(item.attrs());
            match item {
                Item::Fn(f) => self.push_fn(rel, f, self_ty, item_test),
                Item::Mod(m) => {
                    if let Some(content) = &m.content {
                        self.collect_items(rel, content, None, item_test);
                    }
                }
                Item::Impl(im) => {
                    let ty = im.self_ty_ident();
                    let first_fn = self.fns.len();
                    self.collect_items(rel, &im.items, ty.as_deref(), item_test);
                    self.impls.push(ImplNode {
                        self_ty: ty,
                        trait_name: im.trait_ident(),
                        methods: (first_fn..self.fns.len()).collect(),
                    });
                }
                Item::Trait(tr) => {
                    // Default method bodies live under the trait's name as
                    // their self type, so `Trait::method` resolves.
                    let name = tr.ident();
                    self.collect_items(rel, &tr.items, name.as_deref(), item_test);
                }
                _ => {}
            }
        }
    }

    fn push_fn(&mut self, rel: &str, f: &ItemFn, self_ty: Option<&str>, is_test: bool) {
        let name = f.sig.ident.to_string();
        let params = parse_params(f);
        self.fns.push(FnNode {
            file: rel.to_string(),
            line: f.sig.ident.span().start().line.max(1),
            column: f.sig.ident.span().start().column + 1,
            ret_unit: unit_suffix(&name),
            name,
            self_ty: self_ty.map(str::to_string),
            takes_self: f.sig.takes_self(),
            params,
            is_test,
            body: f.body.clone(),
        });
    }
}

fn attrs_mark_test(attrs: &[Attribute]) -> bool {
    attrs.iter().any(|a| a.is_cfg_test() || a.is_test_marker())
}

/// Non-`self` parameters with their unit suffix and declared type's last
/// path segment.
fn parse_params(f: &ItemFn) -> Vec<Param> {
    let mut out = Vec::new();
    for part in split_top_level_commas(&f.sig.inputs) {
        let mut i = 0usize;
        while matches!(&part[i..], [TokenTree::Punct(p), TokenTree::Group(_), ..] if p.as_char() == '#')
        {
            i += 2;
        }
        if matches!(part.get(i), Some(TokenTree::Ident(id)) if *id == "mut") {
            i += 1;
        }
        let Some(TokenTree::Ident(pname)) = part.get(i) else {
            continue; // `self` forms, destructuring patterns
        };
        let name = pname.to_string();
        if name == "self" {
            continue;
        }
        if !matches!(part.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
            continue;
        }
        let ty = &part[i + 2..];
        out.push(Param {
            unit: unit_suffix(&name),
            name,
            ty_name: ty_last_segment(ty),
        });
    }
    out
}

/// The last path segment of a declared type, skipping `&`/`mut`/`dyn`/
/// `impl` prefixes and stopping at generics: `&mut cluster::Node` ->
/// `Node`, `Vec<f64>` -> `Vec`. Tuples, slices, and fn types yield `None`.
fn ty_last_segment(tokens: &[TokenTree]) -> Option<String> {
    let mut last = None;
    let mut after_tick = false;
    for t in tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '&' || p.as_char() == ':' => {}
            TokenTree::Punct(p) if p.as_char() == '\'' => after_tick = true,
            TokenTree::Ident(_) if after_tick => after_tick = false,
            TokenTree::Ident(i) if *i == "mut" || *i == "dyn" || *i == "impl" => {}
            TokenTree::Ident(i) => last = Some(i.to_string()),
            TokenTree::Punct(p) if p.as_char() == '<' => break,
            _ => return None,
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> Workspace {
        let parsed = crate::items::parse_file(src).expect("parse");
        Workspace::build(&[("crates/x/src/lib.rs".to_string(), Some(parsed))])
    }

    #[test]
    fn symbol_table_records_receivers_and_types() {
        let ws = model(
            "pub fn free(a_w: f64, node: &Node) -> f64 { node.freq_hz() }\n\
             impl Engine { fn plan(&self) {} fn step(&mut self, out: &mut Vec<u32>) {} }",
        );
        assert_eq!(ws.fns.len(), 3);
        let free = &ws.fns[ws.fns_named("free")[0]];
        assert_eq!(free.self_ty, None);
        assert!(!free.takes_self);
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[0].unit, Some("_w"));
        assert_eq!(free.params[1].ty_name.as_deref(), Some("Node"));
        let plan = &ws.fns[ws.methods_of("Engine", "plan")[0]];
        assert!(plan.takes_self);
        let step = &ws.fns[ws.methods_of("Engine", "step")[0]];
        assert!(step.takes_self);
    }

    #[test]
    fn trait_default_methods_resolve_under_the_trait_name() {
        let ws = model("trait Gov { fn tick(&mut self) { self.helper(); } fn helper(&self) {} }");
        assert_eq!(ws.methods_of("Gov", "tick").len(), 1);
        assert_eq!(ws.methods_of("Gov", "helper").len(), 1);
    }

    #[test]
    fn impl_nodes_record_trait_and_methods() {
        let ws = model(
            "impl ClusterController for Cap { fn on_sample(&mut self) {} }\n\
             impl Cap { fn emit(&self) {} }",
        );
        assert_eq!(ws.impls.len(), 2);
        assert_eq!(ws.impls[0].trait_name.as_deref(), Some("ClusterController"));
        assert_eq!(ws.impls[0].self_ty.as_deref(), Some("Cap"));
        assert_eq!(ws.impls[0].methods.len(), 1);
        assert_eq!(ws.impls[1].trait_name, None);
    }
}
