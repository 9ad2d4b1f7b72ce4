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
# Above the lists it prints the line counts of src/ (in total and per
# top-level directory, so a shrink shows which layer it cut), of the
# examples/ and bench/ programs built on it, and of tests/*.cpp: the size
# trajectory the census is meant to shrink.
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

python3 - "$repo" "$build" "$lib" <<'EOF'
import glob, os, subprocess, sys

repo, build, lib = sys.argv[1:4]


def lines(paths):
    total = 0
    for path in paths:
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def tree(name):
    """Every file under repo/name, recursively."""
    return [p for p in glob.glob(os.path.join(repo, name, "**", "*"), recursive=True)
            if os.path.isfile(p)]


src_files = tree("src")
print(f"src/: {lines(src_files)} lines in {len(src_files)} files")
by_dir = {}
for path in src_files:
    top = os.path.relpath(path, os.path.join(repo, "src")).split(os.sep)[0]
    by_dir.setdefault(top, []).append(path)
for top in sorted(by_dir):
    print(f"  src/{top}: {lines(by_dir[top])}")
for name in ("examples", "bench"):
    files = tree(name)
    print(f"{name}/: {lines(files)} lines in {len(files)} files")
print(f"tests/*.cpp: {lines(glob.glob(os.path.join(repo, 'tests', '*.cpp')))} lines\n")


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
