#!/usr/bin/env bash
# Byte-identity oracle for refactors: runs every specs/*.exp at --threads 1
# and 4 on two fncc_run binaries and compares what they wrote.
#
#   scripts/compare_spec_outputs.sh A_fncc_run B_fncc_run
#
# For each spec and thread count, the two runs must write the same file
# names, byte-identical CSVs (FCT records, time series) and identical
# manifests once the machine fields are taken out: wall_time_seconds,
# phase_seconds, the echoed thread count, and the run's output directory
# (replaced by a fixed token). events_processed and every counter stay in.
#
# When A and B are the same binary, each thread count runs once and the
# --threads 1 outputs are compared against the --threads 4 ones (the
# determinism contract). Exits 0 when everything matches, 1 on any
# difference or failed run, 2 on bad usage.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 A_fncc_run B_fncc_run" >&2
  exit 2
fi
a_bin=$(realpath "$1")
b_bin=$(realpath "$2")
for bin in "$a_bin" "$b_bin"; do
  [[ -x "$bin" ]] || { echo "not an executable: $bin" >&2; exit 2; }
done

# Spec files name repo-relative inputs (e.g. specs/traces/*.csv).
cd "$(dirname "$0")/.."
work=$(mktemp -d "${TMPDIR:-/tmp}/compare_spec_outputs.XXXXXX")
trap 'rm -rf "$work"' EXIT

# run LABEL BIN THREADS SPEC: writes into $work/LABEL/t<THREADS>/<spec>.
run() {
  local dir="$work/$1/t$3/$(basename "$4" .exp)"
  mkdir -p "$dir"
  if ! "$2" --threads "$3" "$4" output.dir="$dir" > "$dir.log" 2>&1; then
    echo "FAIL  $1: $2 --threads $3 $4 (log follows)" >&2
    tail -n 20 "$dir.log" >&2
    return 1
  fi
}

# Manifest minus machine fields; the output dir becomes a fixed token.
normalize() {
  sed -E -e 's/"wall_time_seconds": [0-9.eE+-]+,? ?//g' \
         -e 's/,? ?"phase_seconds": \{[^}]*\}//g' \
         -e '/^  "threads": [0-9]+,$/d' \
         -e "s#$2#<OUT>#g" "$1"
}

# same DIR_X DIR_Y: the two runs' outputs of one spec match.
same() {
  local ok=0 f pair="${1#"$work"/} vs ${2#"$work"/}"
  if ! diff <(cd "$1" && find . -type f | sort) \
            <(cd "$2" && find . -type f | sort) > /dev/null; then
    echo "DIFF  file lists: $pair" >&2
    return 1
  fi
  while IFS= read -r f; do
    case "$f" in
      *.json)
        if ! cmp -s <(normalize "$1/$f" "$1") <(normalize "$2/$f" "$2"); then
          echo "DIFF  ${f#./} (manifest): $pair" >&2
          ok=1
        fi ;;
      *)
        if ! cmp -s "$1/$f" "$2/$f"; then
          echo "DIFF  ${f#./}: $pair" >&2
          ok=1
        fi ;;
    esac
  done < <(cd "$1" && find . -type f | sort)
  return "$ok"
}

status=0
files=0
for spec in specs/*.exp; do
  name=$(basename "$spec" .exp)
  if [[ "$a_bin" == "$b_bin" ]]; then
    run A "$a_bin" 1 "$spec" && run A "$a_bin" 4 "$spec" || { status=1; continue; }
    pairs=("$work/A/t1/$name $work/A/t4/$name")
  else
    pairs=()
    for t in 1 4; do
      run A "$a_bin" "$t" "$spec" && run B "$b_bin" "$t" "$spec" || { status=1; continue; }
      pairs+=("$work/A/t$t/$name $work/B/t$t/$name")
    done
  fi
  for pair in "${pairs[@]}"; do
    read -r x y <<< "$pair"
    n=$(cd "$x" && find . -type f | wc -l)
    if same "$x" "$y"; then
      echo "OK    $name (${x#"$work"/} = ${y#"$work"/}, $n files)"
      files=$((files + n))
    else
      status=1
    fi
  done
done

if [[ $status -eq 0 ]]; then
  echo "identical: $files files over $(ls specs/*.exp | wc -l) specs"
else
  echo "outputs differ (see DIFF/FAIL lines above)" >&2
fi
exit "$status"
