#!/bin/sh
# Docs gate: verify that every relative markdown link in the repo's docs
# resolves to a real file and its #anchor to a heading, that Go code
# fences in the docs are gofmt-clean, that FLOWS.md covers the flow
# language, and that every package-qualified name the docs cite is still
# declared. Pure POSIX sh + the go toolchain — no extra dependencies.
set -eu

cd "$(dirname "$0")/.."

fail=0

# --- 1. Relative markdown links and their anchors -------------------------
# Extract [text](target) links, drop external URLs, and check the target
# exists relative to the linking file. A #fragment must name a heading of
# the target markdown file (of the linking file itself when the link is a
# pure anchor), slugged as GitHub slugs it: lower case, everything but
# letters, digits, spaces, '-' and '_' dropped, spaces turned into '-', and
# -1, -2, ... appended to repeats. Headings inside fenced code are not
# headings. Non-ASCII characters are dropped, which is right for the
# dashes and arrows the headings use and wrong for accented letters.
slugs() {
    awk '
        /^[ \t]*```/ { fence = !fence; next }
        fence || !/^#+[ \t]/ { next }
        {
            s = tolower($0)
            sub(/^#+[ \t]+/, "", s)
            sub(/[ \t]+#*[ \t]*$/, "", s)
            gsub(/[^a-z0-9 _-]/, "", s)
            gsub(/ /, "-", s)
            if (s in seen) { print s "-" seen[s]; seen[s]++ } else { print s; seen[s] = 1 }
        }
    ' "$1"
}
for doc in README.md DESIGN.md ROADMAP.md PAPER.md CHANGES.md EXPERIMENTS.md docs/*.md; do
    [ -f "$doc" ] || continue
    dir=$(dirname "$doc")
    links=$(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*](\([^)]*\))/\1/') || true
    for link in $links; do
        case "$link" in
        http://*|https://*|mailto:*) continue ;;
        esac
        target="${link%%#*}"
        if [ -z "$target" ]; then
            file="$doc"
        else
            file="$dir/$target"
            if [ ! -e "$file" ]; then
                echo "checkdocs: $doc: broken link -> $link" >&2
                fail=1
                continue
            fi
        fi
        case "$link" in *\#*) ;; *) continue ;; esac
        case "$file" in *.md) ;; *) continue ;; esac
        if ! slugs "$file" | grep -qxF -- "${link#*#}"; then
            echo "checkdocs: $doc: broken anchor -> $link (no such heading in $file)" >&2
            fail=1
        fi
    done
done

# --- 2. gofmt over ```go fences -------------------------------------------
# Each fenced go block must survive gofmt unchanged. Fences marked
# ```go-fragment are skipped (intentionally partial snippets).
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
for doc in README.md docs/*.md; do
    [ -f "$doc" ] || continue
    awk -v out="$tmpdir" -v doc="$doc" '
        /^```go$/ { n++; f = out "/" n ".go"; inblock = 1; next }
        /^```/    { inblock = 0 }
        inblock   { print > f }
    ' "$doc"
    for snippet in "$tmpdir"/*.go; do
        [ -f "$snippet" ] || continue
        if ! gofmt "$snippet" >/dev/null 2>&1; then
            echo "checkdocs: $doc: go fence does not parse (gofmt):" >&2
            cat "$snippet" >&2
            fail=1
        elif [ -n "$(gofmt -l "$snippet")" ]; then
            echo "checkdocs: $doc: go fence is not gofmt-formatted:" >&2
            gofmt -d "$snippet" >&2
            fail=1
        fi
        rm -f "$snippet"
    done
done

# --- 3. FLOWS.md coverage --------------------------------------------------
# The flow-language reference must document every DSL keyword, task name,
# and validation error code the implementation exports; the coverage test
# in internal/flowlang diffs docs/FLOWS.md against the live catalogs.
if ! go test -run 'DocsCoverage' ./internal/flowlang/ >/dev/null; then
    echo "checkdocs: docs/FLOWS.md does not cover the flowlang catalogs" >&2
    echo "checkdocs: run: go test -v -run 'DocsCoverage' ./internal/flowlang/" >&2
    fail=1
fi

# --- 4. Stale names ------------------------------------------------------
# Every backticked pkg.Ident in the reference docs must name something
# declared under internal/pkg: a func or method, a type, a var or const, or
# a struct field or interface method. Only identifiers with an upper-case
# letter are checked, so metric names such as `interp.runs` pass; a chain
# (`core.TaskFunc.Need`, `flowlang.(*Doc).Compile`) checks each link, and
# a brace list (`tasks.SinglePrecision{Fns,Literals}`) is expanded.
# ROADMAP.md and CHANGES.md are history and are not checked. The
# declarations are read from gofmt-formatted source, generously: any
# indented line that starts with a name followed by a space, '(', ',',
# '[' or nothing declares that name, which admits locals and calls too but never misses
# a field.
decls="$tmpdir/decls"
for d in internal/*/; do
    pkg=$(basename "$d")
    awk -v pkg="$pkg" '
        /^[ \t]*\/\// { next }
        {
            line = $0
            if (sub(/^func (\([^)]*\) )?/, "", line) ||
                sub(/^[ \t]*(type|var|const) /, "", line) ||
                sub(/^[ \t]+/, "", line)) {
                while (match(line, /^[A-Za-z_][A-Za-z0-9_]*/)) {
                    name = substr(line, 1, RLENGTH)
                    line = substr(line, RLENGTH + 1)
                    if (line != "" && line !~ /^[ (,[]/) break
                    print pkg "." name
                    if (line !~ /^, /) break
                    line = substr(line, 3)
                }
            }
        }
    ' "$d"*.go
done | sort -u >"$decls"
ls -d internal/*/ | sed 's|internal/\(.*\)/|\1|' >"$tmpdir/pkgs"
for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
    [ -f "$doc" ] || continue
    awk -v doc="$doc" -v pkgsfile="$tmpdir/pkgs" -v declsfile="$decls" '
        BEGIN {
            while ((getline p < pkgsfile) > 0) pkgs[p] = 1
            while ((getline d < declsfile) > 0) declared[d] = 1
        }
        function check(pkg, name) {
            if (name !~ /[A-Z]/ || (pkg "." name) in declared) return
            printf "checkdocs: %s:%d: stale name %s.%s (nothing declared under internal/%s)\n", doc, NR, pkg, name, pkg > "/dev/stderr"
            bad = 1
        }
        # chain checks rest, the text after "pkg.", link by link.
        function chain(pkg, rest,    name, list, n, i, parts) {
            for (;;) {
                if (match(rest, /^\(\*?[A-Za-z_][A-Za-z0-9_]*\)/)) {
                    name = substr(rest, 1, RLENGTH)
                    rest = substr(rest, RLENGTH + 1)
                    gsub(/[(*)]/, "", name)
                    check(pkg, name)
                } else if (match(rest, /^[A-Za-z_][A-Za-z0-9_]*/)) {
                    name = substr(rest, 1, RLENGTH)
                    rest = substr(rest, RLENGTH + 1)
                    if (name !~ /[A-Z]/) return
                    if (match(rest, /^\{[A-Za-z0-9_,]*\}/)) {
                        list = substr(rest, 2, RLENGTH - 2)
                        rest = substr(rest, RLENGTH + 1)
                        n = split(list, parts, ",")
                        for (i = 1; i <= n; i++) check(pkg, name parts[i])
                    } else {
                        check(pkg, name)
                    }
                } else {
                    return
                }
                if (rest !~ /^\./) return
                rest = substr(rest, 2)
            }
        }
        /^[ \t]*```/ { fence = !fence; next }
        fence { next }
        /^[ \t]*$/ { incode = 0; next }
        {
            n = split($0, seg, "`")
            for (i = 1; i <= n; i++) {
                if (i > 1) incode = !incode
                if (!incode) continue
                s = seg[i]
                while (match(s, /[a-z][a-z0-9]*\.[(A-Za-z_]/)) {
                    pre = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
                    tok = substr(s, RSTART, RLENGTH - 2)
                    s = substr(s, RSTART + RLENGTH - 1)
                    if (pre ~ /[A-Za-z0-9_.\/]/ || !(tok in pkgs)) continue
                    chain(tok, s)
                }
            }
        }
        END { exit bad }
    ' "$doc" || fail=1
done

if [ "$fail" -ne 0 ]; then
    echo "checkdocs: FAILED" >&2
    exit 1
fi
echo "checkdocs: ok"
