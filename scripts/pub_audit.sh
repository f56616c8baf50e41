#!/usr/bin/env bash
# Public means called: list every public name of a library crate that no
# code outside the crate's library source uses.
#
# For each library crate under crates/ (graph, core, server, coord,
# datasets, eval) the names checked are
#   - each name its src/lib.rs re-exports with `pub use`,
#   - each `pub mod` its src/lib.rs declares,
#   - each `pub fn` declared under its src/ (src/bin excluded).
# A name passes when some `*.rs` line outside the crate's src/ (its
# src/bin counts as outside) uses it: a whole-word match, or for a module
# a path through it (`rkranks_<crate>::name`, or `name` in a one-line
# `use rkranks_<crate>::{…}` list). Comment lines
# do not count, and neither does the root facade's src/lib.rs, whose lines
# are re-exports and doc comments.
#
# Known limit: the search is by name, not by item, so a method whose name
# another item shares (`new`, `len`, `get`, ...) passes trivially.
#
# Usage: bash scripts/pub_audit.sh   (from anywhere in the repository)
# Prints one `crate: kind name` line per unused name and exits 1 if it
# printed any; prints nothing and exits 0 otherwise. Searches the files
# git tracks (stage a new file first); needs only git, bash and the usual
# text tools.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

COMMENT='^[[:space:]]*//'

# Names re-exported by `pub use` statements in a lib.rs (they may span
# lines): the braced list, or the last path segment, or the `as` alias.
reexports() {
    tr '\n' ' ' <"$1" | grep -oE 'pub use [^;]*;' | sed -E 's/^pub use //; s/;$//' |
        while IFS= read -r stmt; do
            case "$stmt" in
            *'{'*) stmt="${stmt#*\{}"; stmt="${stmt%\}*}" ;;
            esac
            tr ',' '\n' <<<"$stmt" | sed -E 's/.* as //; s/.*:://; s/[[:space:]]//g' | grep -v '^$' || true
        done
}

# True when a non-comment line outside crate CRATE's library source
# matches grep options OPTS... (the last one the pattern).
used_outside() {
    local crate=$1 dir=crates/$1
    shift
    git grep -q "$@" --and --not -e "$COMMENT" -- '*.rs' ":!$dir/src" ':!src/lib.rs' ||
        git grep -q "$@" --and --not -e "$COMMENT" -- "$dir/src/bin"
}

# True when NAME, of KIND `use`, `mod` or `fn`, is used outside CRATE.
called() {
    local crate=$1 kind=$2 name=$3
    if [ "$kind" = mod ]; then
        used_outside "$crate" -E -e "rkranks_$crate::(\\{[^}]*[{ ,])?$name([^A-Za-z0-9_]|\$)"
    else
        used_outside "$crate" -w -e "$name"
    fi
}

status=0
for crate in graph core server coord datasets eval; do
    dir=crates/$crate
    {
        reexports "$dir/src/lib.rs" | sed 's/^/use /'
        git grep -h -oE '^[[:space:]]*pub mod [A-Za-z_][A-Za-z0-9_]*' -- "$dir/src/lib.rs" |
            sed -E 's/^[[:space:]]*pub mod /mod /'
        git grep -h -oE '^[[:space:]]*pub (const |unsafe )?fn [A-Za-z_][A-Za-z0-9_]*' -- "$dir/src" ":!$dir/src/bin" |
            sed -E 's/^.* fn /fn /'
    } | sort -u | while read -r kind name; do
        if ! called "$crate" "$kind" "$name"; then
            echo "$crate: $kind $name"
        fi
    done | grep . && status=1
done
exit $status
