#!/bin/sh
# Same seed => same output at any thread count.
#
# Runs BENCH ARGS... --json out.json once with --threads 1 and once with
# --threads 8, each in a fresh directory, and requires every file the
# bench writes (the --json output and its CSVs; not the wall-clock
# *_stats.json sidecar) to be byte-identical, apart from the lines that
# name the thread count (the replay command and the "threads" flag).
#
# Usage: tests/tools/threads_invariant.sh BENCH [ARGS...]
set -eu
bench=$1
shift
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for t in 1 8; do
  mkdir "$work/t$t"
  if ! (cd "$work/t$t" && "$bench" "$@" --threads "$t" --json out.json > stdout.txt 2>&1); then
    echo "run failed at --threads $t:"
    tail -20 "$work/t$t/stdout.txt"
    exit 1
  fi
  rm "$work/t$t/stdout.txt"
done

files=$(cd "$work/t1" && ls | grep -v '_stats\.json$')
if [ "$files" != "$(cd "$work/t8" && ls | grep -v '_stats\.json$')" ]; then
  echo "different output files: $(ls "$work/t1") vs $(ls "$work/t8")"
  exit 1
fi
status=0
for f in $files; do
  grep -v threads "$work/t1/$f" > "$work/a" || true
  grep -v threads "$work/t8/$f" > "$work/b" || true
  if ! cmp -s "$work/a" "$work/b"; then
    echo "$f differs between --threads 1 and --threads 8:"
    diff "$work/a" "$work/b" | head -20
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "identical at --threads 1 and 8:" $files
exit "$status"
