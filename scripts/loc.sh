#!/usr/bin/env bash
# Net non-test Rust line count: every `.rs` file under crates/, src/ and
# vendor/, counted up to its first `#[cfg(test)]` line, leaving out files in
# `tests/` directories. Run from anywhere: `scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src vendor -name '*.rs' -not -path '*/tests/*' -exec awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }
' {} + | awk '{ total += $1 } END { print total }'
