#!/usr/bin/env bash
# Fails if libdaosim.a defines a daosim:: function that no executable links.
#
# Builds the top-level project (library, tests, bench, tools, examples) and
# perfbench/ at -O0 with one section per function and --gc-sections, so each
# executable keeps exactly the functions it can reach. Every global (T) or
# weak (W) daosim:: function symbol of libdaosim.a must then appear in at
# least one executable; the ones that appear in none are printed and the
# script exits 1.
#
#   scripts/check_dead_code.sh [BUILD_DIR]    # default: build-deadcode
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "${1:-$root/build-deadcode}" && cd "${1:-$root/build-deadcode}" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)

configure_and_build() {  # SRC_DIR BUILD_DIR
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -g0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
  cmake --build "$2" -j "$jobs" > /dev/null
}

configure_and_build "$root" "$out/main"
configure_and_build "$root/perfbench" "$out/perfbench"

# Demangled names of defined T/W symbols that start with daosim::.
daosim_functions() {
  nm -C --defined-only "$1" 2>/dev/null |
    awk '$2 == "T" || $2 == "W" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    grep '^daosim::' || true
}

lib="$out/main/src/libdaosim.a"
mapfile -t exes < <(find "$out" -type f -perm -u+x ! -name '*.so' \
                      ! -path '*/CMakeFiles/*' | sort)
if [[ ${#exes[@]} -eq 0 ]]; then
  echo "check_dead_code: no executables found under $out" >&2
  exit 2
fi

daosim_functions "$lib" | sort -u > "$out/lib_functions.txt"
for exe in "${exes[@]}"; do daosim_functions "$exe"; done | sort -u \
  > "$out/linked_functions.txt"
comm -23 "$out/lib_functions.txt" "$out/linked_functions.txt" \
  > "$out/dead_functions.txt"

echo "check_dead_code: $(wc -l < "$out/lib_functions.txt") daosim:: functions" \
     "in libdaosim.a, ${#exes[@]} executables"
if [[ -s "$out/dead_functions.txt" ]]; then
  echo "check_dead_code: linked by no executable:"
  sed 's/^/  /' "$out/dead_functions.txt"
  exit 1
fi
echo "check_dead_code: every daosim:: function is linked by an executable"
