#!/bin/sh
# Usage: same_outputs.sh REFERENCE_DIR OTHER_DIR...
#
# Fails unless each OTHER_DIR holds exactly the files of REFERENCE_DIR, with
# the same names and the same bytes.
set -e
if [ $# -lt 2 ]; then
  echo "usage: same_outputs.sh REFERENCE_DIR OTHER_DIR..." >&2
  exit 2
fi
reference=$1
shift
for other in "$@"; do
  for f in "$reference"/*; do
    cmp "$f" "$other/$(basename "$f")"
  done
  if [ "$(ls "$reference")" != "$(ls "$other")" ]; then
    echo "$reference and $other hold different files" >&2
    exit 1
  fi
done
