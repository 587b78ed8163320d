#!/bin/sh
# Non-test source lines added and removed since BASE (default HEAD), per
# file and in total: every PR's "net lines" figure, counted one way.
# The library total covers src/ and crates/*/src but the bench crate; a
# second total covers crates/bench/src. Both leave out the vendored
# stand-ins and everything from a file's first #[cfg(test)] on.
# Renames count as a removed file plus an added one. usage: net-lines.sh [BASE]
base=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)" || exit 1
body() { awk '/#\[cfg\(test\)\]/ { exit } { print }'; }
old=$(mktemp) new=$(mktemp)
trap 'rm -f "$old" "$new"' EXIT
# changed SKIP PATHSPEC...: the .rs files under PATHSPEC changed since
# BASE or untracked, less those matching SKIP (a grep pattern).
changed() {
    skip=$1
    shift
    {
        git diff --no-renames --name-only "$base" -- "$@"
        git ls-files --others --exclude-standard -- "$@"
    } | grep '\.rs$' | grep -v "$skip" | sort -u
}
# count LABEL: a line per file read on stdin, then their total.
count() {
    while read -r f; do
        git show "$base:$f" 2>/dev/null | body > "$old"
        if [ -f "$f" ]; then body < "$f" > "$new"; else : > "$new"; fi
        diff "$old" "$new" | awk -v f="$f" '
            /^>/ { a++ } /^</ { r++ }
            END { if (a + r) printf "%-40s +%d -%d\n", f, a, r }'
    done | awk -v label="$1" '
        { print; a += $2; r -= $3 }
        END { printf "%-40s +%d -%d  net %+d\n", label, a, r, a - r }'
}
changed '^crates/vendor/\|^crates/bench/' src 'crates/*/src/*' | count total
changed '^crates/vendor/' 'crates/bench/src/*' | count 'crates/bench total'
