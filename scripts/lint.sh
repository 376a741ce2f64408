#!/usr/bin/env bash
# Local mirror of the CI `fmt` + `lint` jobs: formatting, clippy with
# warnings denied (which also enforces the determinism and panic rules
# of clippy.toml and [workspace.lints.clippy]), and the project-specific
# simlint pass (unit, literal-index, must-use, float-equality and
# dataflow rules; see DESIGN.md §11 and §16). Run from anywhere inside
# the repo; exits non-zero on the first failing gate.
set -euo pipefail

cd "$(git rev-parse --show-toplevel 2>/dev/null || dirname "$0")/."

echo "== rustfmt (check) =="
cargo fmt --check

echo "== clippy (deny warnings; determinism and panic rules) =="
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "== simlint (deny findings) =="
cargo run -q -p simlint

echo "lint: all gates passed"
