#!/usr/bin/env bash
# Static invariant lint — thin wrapper around the token-aware Rust
# implementation in src/bin/lint_invariants.rs (comments and string
# literals are lexed away before any rule matches; see that file for the
# ten rules and their rationale).
#
#   ./scripts/lint_invariants.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --bin lint_invariants
