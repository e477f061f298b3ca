#!/usr/bin/env bash
# Code-size report: total Rust lines and public items.
# Usage: scripts/size.sh  (run from anywhere inside the repo)
#
# Rust lines: every .rs file under crates/, examples/ and tests/.
# Public items: `pub fn/struct/enum/const/trait/type/mod/static` declarations
# in the library sources (crates/*/src); `pub(crate)` and re-exports do not
# count. Informational only: nothing gates on these numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

lines="$(find crates examples tests -name '*.rs' -print0 | xargs -0 cat | wc -l)"
items="$(grep -rE '^\s*pub (fn|struct|enum|const|trait|type|mod|static) ' crates/*/src | wc -l)"
echo "rust_lines=$lines"
echo "public_items=$items"
