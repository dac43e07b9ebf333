#!/usr/bin/env bash
# Docs gate, run by CI and registered as the `docs.check` ctest:
#   1. every relative markdown link in the repo's *.md files resolves to an
#      existing file/directory;
#   2. every subsystem under src/ is described in both DESIGN.md (as
#      `src/<name>`) and README.md (as `<name>/`);
#   3. diagnostic rule ids stay in sync with the docs, both directions:
#      every id declared in analysis/diagnostic.hpp is documented in
#      DESIGN.md or QUANTIZATION.md, and every backticked rule-shaped
#      token those docs use is a real declared id (catches typos and
#      stale ids left behind by renames);
#   4. README.md perf claims are backed by the checked-in bench records:
#      the kernel-performance section cites BENCH_kernels.json, and every
#      `N.NN×` speedup quoted in README.md prefix-matches a "speedup"
#      value in a checked-in BENCH_*.json;
#   5. metric and span names stay in sync with OBSERVABILITY.md, both
#      directions: every literal name passed to counter/gauge/summary/
#      histogram("...") or to obs::Span / DCNAS_TRACE_SPAN under src/ is
#      quoted in OBSERVABILITY.md, and every backticked name there in an
#      emitted namespace is still a string literal somewhere under src/.
#
# Usage: check_docs.sh [repo-root]   (defaults to the script's parent dir)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2
failures=0

fail() {
  echo "check_docs: $*" >&2
  failures=$((failures + 1))
}

# --- 1. markdown link targets -------------------------------------------
# Extract inline [text](target) links; skip absolute URLs, mailto, and
# pure-anchor links. Anchored file links (FILE.md#section) check FILE only.
while IFS=: read -r file target; do
  case "$target" in
    http://*|https://*|mailto:*|'#'*) continue ;;
  esac
  path="${target%%#*}"
  [ -z "$path" ] && continue
  dir=$(dirname "$file")
  if [ ! -e "$path" ] && [ ! -e "$dir/$path" ]; then
    fail "$file: broken link -> $target"
  fi
done < <(find . -name '*.md' -not -path './build*/*' -print0 |
         xargs -0 grep -oH '\[[^][]*\]([^()[:space:]]*)' |
         sed -E 's/^([^:]+):\[[^][]*\]\(([^()]*)\)$/\1:\2/')

# --- 2. every src subsystem is documented --------------------------------
for dir in src/*/; do
  name=$(basename "$dir")
  if ! grep -q "src/$name" DESIGN.md; then
    fail "DESIGN.md does not describe src/$name"
  fi
  if ! grep -q "$name/" README.md; then
    fail "README.md does not mention $name/"
  fi
done

# --- 3. diagnostic rule ids <-> docs, both directions --------------------
diag=src/analysis/include/dcnas/analysis/diagnostic.hpp
rule_ids=$(sed -nE 's/.*constexpr const char\* k[A-Za-z0-9]+ = "([a-z.-]+)";.*/\1/p' "$diag")
if [ -z "$rule_ids" ]; then
  fail "no rule ids extracted from $diag (pattern drift?)"
fi
for id in $rule_ids; do
  if ! grep -q "\`$id\`" DESIGN.md QUANTIZATION.md; then
    fail "rule id $id ($diag) is documented in neither DESIGN.md nor QUANTIZATION.md"
  fi
done
# Reverse: backticked one-dot tokens in a rule namespace must be declared.
# (Metric/span names use >= two dots, so they never match this shape.)
prefixes=$(printf '%s\n' "$rule_ids" | cut -d. -f1 | sort -u | paste -sd'|' -)
while read -r tok; do
  if ! printf '%s\n' "$rule_ids" | grep -qx "$tok"; then
    fail "docs cite rule id $tok, which $diag does not declare"
  fi
done < <(grep -ohE '`[a-z-]+\.[a-z-]+`' DESIGN.md QUANTIZATION.md |
         tr -d '`' | grep -E "^($prefixes)\." | sort -u)

# --- 4. README perf numbers cite checked-in bench records ----------------
if ! grep -q '`BENCH_kernels.json`' README.md; then
  fail "README.md kernel-performance section does not cite BENCH_kernels.json"
fi
if [ ! -f BENCH_kernels.json ]; then
  fail "BENCH_kernels.json is not checked in at the repo root"
fi
while read -r num; do
  n="${num%×}"
  if ! grep -q "\"speedup\": $n" BENCH_*.json 2>/dev/null; then
    fail "README.md quotes speedup $num not backed by any checked-in BENCH_*.json"
  fi
done < <(grep -oE '[0-9]+\.[0-9]+×' README.md | sort -u)

# --- 5. metric/span names <-> OBSERVABILITY.md, both directions ---------
# perl slurps each file so calls split across lines still match.
src_files=$(find src -name '*.cpp' -o -name '*.hpp')
emitted=$(perl -0777 -ne '
  print "$1\n" while /\b(?:counter|gauge|summary|histogram)\(\s*"([^"]+)"/g;
  print "$1\n" while /(?:obs::Span\s*\w*|DCNAS_TRACE_SPAN)\s*\(\s*"[^"]*"\s*,\s*"([^"]+)"/g;
' $src_files | sort -u)
if [ -z "$emitted" ]; then
  fail "no metric/span names extracted from src/ (pattern drift?)"
fi
for name in $emitted; do
  if ! grep -qF -e "\`$name\`" -e "\"$name\"" OBSERVABILITY.md; then
    fail "metric/span $name (src/) is not documented in OBSERVABILITY.md"
  fi
done
# Reverse: backticked dotted names in an emitted namespace must still exist
# as a string literal under src/ (labelled per-model metrics are built from
# literals too, so they pass).
namespaces=$(printf '%s\n' "$emitted" | cut -d. -f1 | sort -u | paste -sd'|' -)
while read -r tok; do
  if ! grep -rqF "\"$tok\"" src; then
    fail "OBSERVABILITY.md documents $tok, which no code under src/ emits"
  fi
done < <(grep -ohE '`[a-z0-9_]+(\.[a-z0-9_]+)+`' OBSERVABILITY.md |
         tr -d '`' | grep -E "^($namespaces)\." | sort -u)

if [ "$failures" -ne 0 ]; then
  echo "check_docs: $failures problem(s) found" >&2
  exit 1
fi
echo "check_docs: OK (links resolve, subsystems documented, rule ids in sync, perf numbers backed by BENCH_*.json, metric/span names in sync)"
