#!/bin/sh
# Usage: same_for_workers.sh NAME "WORKERS" COMMAND [ARGS...]
# From the root of a checkout, runs `python -m spinnoise.cli COMMAND ARGS
# --threads n --out NAME_n` for each of two or more worker counts n in
# WORKERS, and fails unless each NAME_n holds the first one's files and bytes.
set -e
if [ $# -lt 3 ] || [ "$(echo $2 | wc -w)" -lt 2 ]; then
  echo 'usage: same_for_workers.sh NAME "WORKERS" COMMAND [ARGS...]' >&2
  exit 2
fi
name=$1 workers=$2
shift 2
first=
for n in $workers; do
  PYTHONPATH=src python -m spinnoise.cli "$@" --threads "$n" --out "${name}_$n"
  if [ -z "$first" ]; then
    first=$n
  elif ! sh "$(dirname "$0")/same_outputs.sh" "${name}_$first" "${name}_$n"; then
    echo "$name: the outputs with --threads $n differ from those with --threads $first" >&2
    exit 1
  fi
done
