//! The `controller-discipline` pass: audits every impl of
//! `ClusterController` for the two engine contracts the type system
//! cannot express:
//!
//! 1. The engine delivers the runtime hooks (`on_wait_begin`,
//!    `on_wait_end`, `on_phase`, `on_sample`) only when
//!    `wants_runtime_events` returns true. Overriding a hook without
//!    overriding the gate produces a controller whose hooks silently
//!    never fire.
//! 2. Frequency `Decision`s are legal only from sample instants
//!    (DESIGN.md §15): decisions carry settle latencies that must not
//!    punch holes in the middle of modeled phases. The non-sample hooks
//!    may observe state but must not touch their decision out-parameter.

use crate::tokens::{Group, TokenTree};

use crate::config::{
    CONTROLLER_GATE, CONTROLLER_NON_SAMPLE_HOOKS, CONTROLLER_RUNTIME_HOOKS, CONTROLLER_TRAIT,
};
use crate::model::Workspace;
use crate::rules::Finding;

/// Run the pass over every audited impl.
pub(crate) fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for im in &ws.impls {
        if im.trait_name.as_deref() != Some(CONTROLLER_TRAIT) {
            continue;
        }
        let ty = im.self_ty.as_deref().unwrap_or("_");
        let overrides_gate = im
            .methods
            .iter()
            .any(|&i| ws.fns[i].name == CONTROLLER_GATE);
        for &i in &im.methods {
            let f = &ws.fns[i];
            let hook = f.name.as_str();
            if !CONTROLLER_RUNTIME_HOOKS.contains(&hook) {
                continue;
            }
            if !overrides_gate {
                findings.push(Finding {
                    file: f.file.clone(),
                    line: f.line,
                    column: f.column,
                    rule: "controller-discipline",
                    message: format!(
                        "`{ty}` overrides runtime hook `{hook}` without overriding \
                         `{CONTROLLER_GATE}`; the engine will never deliver it"
                    ),
                });
            }
            if CONTROLLER_NON_SAMPLE_HOOKS.contains(&hook) {
                if let Some(used) = body_emits_decisions(f.body.as_ref(), f.params.last()) {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: f.line,
                        column: f.column,
                        rule: "controller-discipline",
                        message: format!(
                            "`{ty}::{hook}` {used}; decisions are legal only from \
                             `on_sample` (sample instants, DESIGN.md §15)"
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Whether a non-sample hook body touches its decision out-parameter or
/// constructs a `Decision` directly. Returns a description of the use, or
/// `None` for a clean body.
fn body_emits_decisions(
    body: Option<&Group>,
    out_param: Option<&crate::model::Param>,
) -> Option<String> {
    let body = body?;
    let out_name = out_param.map(|p| p.name.as_str());
    let mut hit = None;
    scan(body.stream().tokens(), out_name, &mut hit);
    hit
}

fn scan(tokens: &[TokenTree], out_name: Option<&str>, hit: &mut Option<String>) {
    for t in tokens {
        if hit.is_some() {
            return;
        }
        match t {
            TokenTree::Ident(id) => {
                let name = id.to_string();
                if Some(name.as_str()) == out_name {
                    *hit = Some(format!("touches its decision out-parameter `{name}`"));
                } else if name == "Decision" {
                    *hit = Some("constructs a `Decision`".to_string());
                }
            }
            TokenTree::Group(g) => scan(g.stream().tokens(), out_name, hit),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let parsed = crate::items::parse_file(src).expect("parse");
        let ws = Workspace::build(&[("crates/x/src/lib.rs".to_string(), Some(parsed))]);
        check(&ws)
    }

    #[test]
    fn ungated_runtime_hook_is_flagged() {
        let f = run("impl ClusterController for Cap { \
                 fn on_sample(&mut self, now: SimTime, nodes: &[Node], out: &mut Vec<Decision>) {} \
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("wants_runtime_events"), "{f:?}");
    }

    #[test]
    fn gated_hooks_are_clean() {
        let f = run("impl ClusterController for Cap { \
                 fn wants_runtime_events(&self) -> bool { true } \
                 fn on_sample(&mut self, now: SimTime, nodes: &[Node], out: &mut Vec<Decision>) { \
                     out.push(Decision { node: 0, op: 1 }); \
                 } \
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_sample_hook_emitting_decisions_is_flagged() {
        let f = run("impl ClusterController for Cap { \
                 fn wants_runtime_events(&self) -> bool { true } \
                 fn on_phase(&mut self, now: SimTime, rank: usize, name: &str, begin: bool, \
                             nodes: &[Node], out: &mut Vec<Decision>) { \
                     out.push(Decision { node: 0, op: 1 }); \
                 } \
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("out-parameter"), "{f:?}");
    }

    #[test]
    fn observing_hooks_with_unused_out_params_are_clean() {
        // `_out` in the signature (not the body) must not trip the scan —
        // the parameter type mentions `Decision` but the body is clean.
        let f = run("impl ClusterController for Cap { \
                 fn wants_runtime_events(&self) -> bool { true } \
                 fn on_wait_begin(&mut self, now: SimTime, rank: usize, nodes: &[Node], \
                                  _out: &mut Vec<Decision>) { \
                     self.waits += 1; \
                 } \
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unaudited_traits_are_ignored() {
        let f = run("impl OtherTrait for X { \
                 fn on_sample(&mut self, out: &mut Vec<Decision>) { out.push(1); } \
             }");
        assert!(f.is_empty(), "{f:?}");
    }
}
