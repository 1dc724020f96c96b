#!/bin/sh
# Prints first-party non-test Rust lines, per file and in total: the
# non-blank lines of every `.rs` file under `crates/*/src` and `src/`, up
# to the file's first top-level `#[cfg(test)]` (one at column 0; an
# indented one inside a module does not end the count).
#
#   ci/loc.sh            # from anywhere in the repository
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' | sort | xargs awk '
  FNR == 1 { if (file != "") print n, file; file = FILENAME; n = 0; tests = 0 }
  /^#\[cfg\(test\)\]/ { tests = 1 }
  !tests && NF { n++ }
  END { if (file != "") print n, file }
' | awk '{ total += $1; print } END { print total, "total" }'
