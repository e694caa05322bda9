#!/usr/bin/env bash
# Usage: bash .github/stderr-free.sh COMMAND [ARGS...]
# Runs COMMAND and fails if it fails or writes anything to stderr (shown either way).
err=$(mktemp)
trap 'rm -f "$err"' EXIT
"$@" 2> "$err"
status=$?
cat "$err" >&2
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if [ -s "$err" ]; then
  echo "::error::'$*' wrote $(wc -c < "$err") bytes to stderr" >&2
  exit 1
fi
