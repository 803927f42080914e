#!/usr/bin/env bash
# Documentation honesty checks (the CI `docs` job):
#
#   1. Every relative Markdown link in README.md and docs/*.md resolves
#      to a file or directory in the repo.
#   2. The README knob table and the HIDA_* environment variables the
#      compiler (src/), the benches (bench/), the tests (tests/) and the
#      scripts (scripts/) read name the same set: every variable read has
#      a row, and every HIDA_* row names a variable something reads.
#
# Exit non-zero with one line per problem; print OK otherwise. Callable
# locally from anywhere inside the repo.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

status=0

# ---- 1. Relative link checker ---------------------------------------------
# Markdown inline links: [text](target). External schemes and pure
# anchors are skipped; a #fragment on a relative target is stripped.
doc_files=(README.md)
while IFS= read -r f; do
    doc_files+=("$f")
done < <(find docs -name '*.md' | sort)

for doc in "${doc_files[@]}"; do
    dir=$(dirname "$doc")
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [[ -z "$path" ]] && continue
        if [[ ! -e "$dir/$path" ]]; then
            echo "FAIL: $doc links to missing file '$target'" >&2
            status=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//')
done

# ---- 2. Knob table == variables read --------------------------------------
# A HIDA_* var is read when getenv()/envUint()/envDouble() in C++ or a
# ${HIDA_*} expansion in shell names it. HIDA_ASSERT/PANIC/FATAL are
# macros, not knobs; *_H are include guards. A knob row is a table line
# whose first cell is a backtick-quoted HIDA_* name.
vars=$(
    {
        grep -rhoE '(getenv|envUint|envDouble)\("HIDA_[A-Z_0-9]+"' \
            src/ bench/ tests/ 2>/dev/null | grep -oE 'HIDA_[A-Z_0-9]+'
        grep -rhoE '\$\{HIDA_[A-Z_0-9]+' scripts/*.sh 2>/dev/null |
            grep -oE 'HIDA_[A-Z_0-9]+'
    } | sort -u
)
rows=$(grep -oE '^\| `HIDA_[A-Z_0-9]+`' README.md | grep -oE 'HIDA_[A-Z_0-9]+' |
    sort -u)

for var in $vars; do
    if ! grep -qx "$var" <<< "$rows"; then
        echo "FAIL: env var $var is read but missing from the README" \
             "knob table" >&2
        status=1
    fi
done
for row in $rows; do
    if ! grep -qx "$row" <<< "$vars"; then
        echo "FAIL: the README knob table has a row for $row, which" \
             "nothing in src/, bench/, tests/ or scripts/ reads" >&2
        status=1
    fi
done

if [[ $status -ne 0 ]]; then
    exit $status
fi
echo "OK: all relative doc links resolve; knob table covers" \
     "$(echo "$vars" | wc -w) HIDA_* env vars"
