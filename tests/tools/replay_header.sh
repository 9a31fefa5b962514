#!/bin/sh
# The replay header reproduces the run.
#
# Runs BENCH ARGS... --json out.json in a fresh directory, takes the
# command from the "(replay: ...)" part of the first line it prints,
# runs that command (with the bench's path in place of its name) in a
# second fresh directory, and requires every file both runs write (not
# the wall-clock *_stats.json sidecar) to be byte-identical.
#
# Usage: tests/tools/replay_header.sh BENCH [ARGS...]
set -eu
bench=$1
shift
name=$(basename "$bench")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/first" "$work/replay"

if ! (cd "$work/first" && "$bench" "$@" --json out.json > "$work/first.txt" 2>&1); then
  echo "run failed:"
  tail -20 "$work/first.txt"
  exit 1
fi
header=$(head -n 1 "$work/first.txt")
cmd=$(printf '%s\n' "$header" | sed -n "s/^# $name .*(replay: $name\(.*\))\$/\1/p")
if [ -z "$cmd" ]; then
  echo "no '# $name ... (replay: $name ...)' header; first line: $header"
  exit 1
fi
if ! (cd "$work/replay" && eval "\"\$bench\" $cmd" > "$work/replay.txt" 2>&1); then
  echo "replay failed: $name$cmd"
  tail -20 "$work/replay.txt"
  exit 1
fi
if [ "$(head -n 1 "$work/replay.txt")" != "$header" ]; then
  echo "replay header differs: $(head -n 1 "$work/replay.txt")"
  exit 1
fi

files=$(cd "$work/first" && ls | grep -v '_stats\.json$')
if [ "$files" != "$(cd "$work/replay" && ls | grep -v '_stats\.json$')" ]; then
  echo "different output files: $(ls "$work/first") vs $(ls "$work/replay")"
  exit 1
fi
status=0
for f in $files; do
  if ! cmp -s "$work/first/$f" "$work/replay/$f"; then
    echo "$f differs on replay:"
    diff "$work/first/$f" "$work/replay/$f" | head -20
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "replayed '$name$cmd'; identical:" $files
exit "$status"
