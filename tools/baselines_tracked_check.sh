#!/usr/bin/env bash
# Guard for the committed perf-gate baselines (bench/baselines/README.md):
# every baseline directory the gates read must hold BENCH_*.json reports
# that git actually tracks, and no report under bench/baselines/ may be
# caught by a .gitignore rule.
#
# The perf gates read baselines from the checkout, so a report that was
# generated locally but never committed makes the gate pass on the machine
# that produced it and fail (or check nothing) everywhere else. A broad
# ignore rule such as BENCH_*.json drops such a file silently at `git add`.
#
# Checks:
#   1. Every directory passed as --baseline in .github/workflows/ci.yml and
#      in tools/CMakeLists.txt (the bench_diff_self* tests) holds at least
#      one BENCH_*.json that `git ls-files` lists.
#   2. `git check-ignore --no-index` reports none of the BENCH_*.json files
#      under bench/baselines/ as ignored.
#
# Exits 0 on pass, 1 on a violation, and 77 (the ctest SKIP_RETURN_CODE)
# when git is not on the PATH or the source tree is not a git work tree.
#
# Usage: baselines_tracked_check.sh <source-dir>
set -euo pipefail

SRC=${1:?usage: baselines_tracked_check.sh <source-dir>}
SKIP=77

if ! command -v git >/dev/null 2>&1; then
  echo "SKIP: git is not on the PATH"
  exit "$SKIP"
fi
if [ "$(git -C "$SRC" rev-parse --is-inside-work-tree 2>/dev/null)" != true ]
then
  echo "SKIP: $SRC is not a git work tree"
  exit "$SKIP"
fi
cd "$SRC"

# Prints the directory operand of every `--baseline <dir>` in file $1,
# relative to the source root. Lines are joined first so an operand on a
# continuation line is still found.
baseline_dirs() {
  tr '\n' ' ' < "$1" |
    { grep -oE -- '--baseline[[:space:]]+[^[:space:]]+' || true; } |
    awk '{print $2}' |
    sed -e 's|^\${CMAKE_SOURCE_DIR}/||' -e 's|/*$||'
}

fail=0
dirs=()
for file in .github/workflows/ci.yml tools/CMakeLists.txt; do
  found=$(baseline_dirs "$file")
  if [ -z "$found" ]; then
    # A renamed flag must not turn this guard into a vacuous pass.
    echo "FAIL: no --baseline operand found in $file"
    fail=1
    continue
  fi
  mapfile -t -O "${#dirs[@]}" dirs <<< "$found"
done
mapfile -t dirs < <(printf '%s\n' "${dirs[@]}" | sort -u)

# 1. Each baseline directory has at least one tracked report directly in it.
for dir in "${dirs[@]}"; do
  tracked=$(git ls-files -- "$dir" |
              grep -cE "^${dir//./\\.}/BENCH_[^/]*\.json$" || true)
  if [ "$tracked" -eq 0 ]; then
    echo "FAIL: $dir holds no BENCH_*.json tracked by git" \
         "(regenerate and commit it: bench/baselines/README.md)"
    fail=1
  else
    echo "ok: $dir ($tracked tracked report(s))"
  fi
done

# 2. No report under bench/baselines/ is ignored: an ignored one that was
#    generated here would be dropped silently at `git add`.
mapfile -t reports < <(find bench/baselines -name 'BENCH_*.json' | sort)
# check-ignore exits 0 when some path is ignored, 1 when none is. Without
# -v it lists only the ignored paths (-v also lists negated matches); -v is
# rerun on those to name the rule that catches each.
rc=0
ignored=$(git check-ignore --no-index -- "${reports[@]}") || rc=$?
case "$rc" in
  0) echo "FAIL: .gitignore drops baseline reports (rule, then path):"
     mapfile -t ignored <<< "$ignored"
     git check-ignore --no-index -v -- "${ignored[@]}" | sed 's/^/  /'
     fail=1 ;;
  1) echo "ok: ${#reports[@]} baseline report(s), none ignored" ;;
  *) echo "FAIL: git check-ignore exited $rc"
     fail=1 ;;
esac

exit "$fail"
