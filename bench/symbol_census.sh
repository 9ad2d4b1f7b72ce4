#!/usr/bin/env bash
# Dead-code census of libcello: which strong library symbols does no shipped
# binary link?
#
# Builds the perfbench project (libcello, every example, bench, test and the
# `cello_perfbench` program) into a scratch directory with
# -ffunction-sections -fdata-sections and -Wl,--gc-sections, so a binary
# keeps only the library code it can reach.  Then it prints the strong
# (non-weak, global) libcello symbols that no example_*, bench_* or
# cello_perfbench binary contains, split into
#   tests only  linked by some *_test binary and by nothing else
#   nowhere     linked by no binary at all
#
# A symbol whose every call was inlined leaves no out-of-line copy behind, so
# it is listed here although its code runs.  Read each entry before deleting.
#
# Usage: bench/symbol_census.sh [build-dir]
#   build-dir  reused (and kept) when given; a temporary directory otherwise
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
if [[ $# -ge 1 ]]; then
  build="$1"
else
  build="$(mktemp -d)"
  trap 'rm -rf "$build"' EXIT
fi

cmake -S "$repo/perfbench" -B "$build" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
# `cello_perfbench` is the top-level target; libcello's own project is pulled in
# EXCLUDE_FROM_ALL, so its examples, benches and tests build from its
# subdirectory.
make -C "$build" -j "$(nproc)" cello_perfbench >/dev/null
make -C "$build/cello" -j "$(nproc)" >/dev/null

lib="$build/cello/libcello.a"
[[ -f "$lib" ]] || { echo "error: $lib was not built" >&2; exit 1; }

python3 - "$build" "$lib" <<'EOF'
import os, subprocess, sys

build, lib = sys.argv[1:3]


def defined(path):
    """Mangled names of the symbols `path` defines, with their nm type."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    syms = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3:
            syms[parts[2]] = parts[1]
    return syms


# Strong globals only: weak symbols (inline functions, templates) belong to
# whichever translation unit instantiates them.
strong = {s for s, t in defined(lib).items() if t in "TDBR"}

shipped, tests = set(), set()
for root in (build, os.path.join(build, "cello")):
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            continue
        if name.endswith("_test"):
            tests |= defined(path).keys()
        elif name.startswith(("example_", "bench_")) or name == "cello_perfbench":
            shipped |= defined(path).keys()


def demangle(names):
    if not names:
        return []
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return sorted(out.splitlines())


unshipped = strong - shipped
tests_only = demangle(sorted(unshipped & tests))
nowhere = demangle(sorted(unshipped - tests))
print(f"libcello strong symbols: {len(strong)}; "
      f"linked by an example, bench or perfbench binary: {len(strong) - len(unshipped)}")
print("(an inlined-only symbol is listed although its code runs)")
print(f"\nnowhere ({len(nowhere)}):")
for s in nowhere:
    print(f"  {s}")
print(f"\ntests only ({len(tests_only)}):")
for s in tests_only:
    print(f"  {s}")
EOF
