#!/usr/bin/env bash
# Size ratchet for the ordering kernel and the engines around it.
#
# For each file of the set below it prints the non-test lines (the lines
# before the file's first `#[cfg(test)]`) and the non-test `.unwrap()` /
# `.expect(` count, then the totals of the kernel set (A: the engines and
# the kernel modules they call for ordering) and of the whole set (B).
#
#   scripts/kernel_size.sh           print the counts
#   scripts/kernel_size.sh --check   also exit 1 when set A's or set B's
#                                    total, or an engine file's unwrap/expect
#                                    count, is above its ceiling below
#
# A change that has to grow the set raises the ceiling in its own diff and
# says why in CHANGES.md.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

CEIL_A=4559
CEIL_B=6563
# Engine file -> its unwrap/expect ceiling.
declare -A CEIL_EXPECT=(
  [crates/runtime/src/engine.rs]=0
  [crates/runtime/src/cpr.rs]=13
  [crates/sim/src/gprs.rs]=0
)

SET_A=(
  crates/runtime/src/engine.rs
  crates/runtime/src/rex.rs
  crates/sim/src/gprs.rs
  crates/core/src/recovery.rs
  crates/core/src/retire.rs
  crates/core/src/roster.rs
  crates/core/src/resources.rs
)
SET_B_ONLY=(
  crates/runtime/src/ops.rs
  crates/runtime/src/ctx.rs
  crates/runtime/src/registry.rs
  crates/runtime/src/lib.rs
  crates/runtime/src/cpr.rs
)

# Non-test lines of a tracked file, then its unwrap/expect count.
count() {
  git ls-files --error-unmatch "$1" >/dev/null
  awk '/#\[cfg\(test\)\]/ { exit }
       { n++; u += gsub(/\.unwrap\(\)|\.expect\(/, "") }
       END { print n + 0, u + 0 }' "$1"
}

fail=0
total_a=0
total_b=0
printf '%-36s %6s %6s\n' file lines expect
for f in "${SET_A[@]}" "${SET_B_ONLY[@]}"; do
  read -r lines expects < <(count "$f")
  printf '%-36s %6d %6d\n' "$f" "$lines" "$expects"
  total_b=$((total_b + lines))
  for a in "${SET_A[@]}"; do
    [[ $a == "$f" ]] && total_a=$((total_a + lines))
  done
  ceil=${CEIL_EXPECT[$f]:-}
  if [[ -n $ceil && $expects -gt $ceil ]]; then
    echo "  $f: $expects unwrap/expect sites, ceiling $ceil" >&2
    fail=1
  fi
done
printf '%-36s %6d (ceiling %d)\n' "set A (kernel)" "$total_a" "$CEIL_A"
printf '%-36s %6d (ceiling %d)\n' "set B (all)" "$total_b" "$CEIL_B"
(( total_a > CEIL_A )) && { echo "  set A is above its ceiling" >&2; fail=1; }
(( total_b > CEIL_B )) && { echo "  set B is above its ceiling" >&2; fail=1; }
if [[ ${1:-} == --check ]]; then
  exit "$fail"
fi
