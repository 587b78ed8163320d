#!/bin/sh
# Non-test source lines added and removed since BASE (default HEAD), per
# file and in total: every PR's "net lines" figure, counted one way.
# Covers src/ and crates/*/src; leaves out the vendored stand-ins, the
# bench crate, and everything from a file's first #[cfg(test)] on.
# Renames count as a removed file plus an added one. usage: net-lines.sh [BASE]
base=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)" || exit 1
body() { awk '/#\[cfg\(test\)\]/ { exit } { print }'; }
old=$(mktemp) new=$(mktemp)
trap 'rm -f "$old" "$new"' EXIT
{
    git diff --no-renames --name-only "$base" -- src 'crates/*/src/*'
    git ls-files --others --exclude-standard -- src 'crates/*/src/*'
} | grep '\.rs$' | grep -v '^crates/vendor/\|^crates/bench/' | sort -u |
    while read -r f; do
        git show "$base:$f" 2>/dev/null | body > "$old"
        if [ -f "$f" ]; then body < "$f" > "$new"; else : > "$new"; fi
        diff "$old" "$new" | awk -v f="$f" '
            /^>/ { a++ } /^</ { r++ }
            END { if (a + r) printf "%-40s +%d -%d\n", f, a, r }'
    done | awk '
        { print; a += $2; r -= $3 }
        END { printf "%-40s +%d -%d  net %+d\n", "total", a, r, a - r }'
