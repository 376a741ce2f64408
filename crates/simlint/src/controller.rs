//! The `controller-discipline` pass: audits every impl of
//! `ClusterController` for the one engine contract the type system
//! cannot express. The engine delivers the runtime hooks
//! (`on_wait_begin`, `on_wait_end`, `on_sample`) only when
//! `wants_runtime_events` returns true, so overriding a hook without
//! overriding the gate produces a controller whose hooks silently never
//! fire. (That decisions come only from sample instants, DESIGN.md §15,
//! needs no lint: `on_sample` is the only hook given a decision buffer.)

use crate::config::{CONTROLLER_GATE, CONTROLLER_RUNTIME_HOOKS, CONTROLLER_TRAIT};
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
        if overrides_gate {
            continue;
        }
        for &i in &im.methods {
            let f = &ws.fns[i];
            let hook = f.name.as_str();
            if CONTROLLER_RUNTIME_HOOKS.contains(&hook) {
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
        }
    }
    findings
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
    fn unaudited_traits_are_ignored() {
        let f = run("impl OtherTrait for X { \
                 fn on_sample(&mut self, out: &mut Vec<Decision>) { out.push(1); } \
             }");
        assert!(f.is_empty(), "{f:?}");
    }
}
