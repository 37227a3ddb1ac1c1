#!/usr/bin/env bash
# A/B-compares one workload of the service benchmark between a parent
# revision and the working tree. Run it from the repository root:
#
#   bash scripts/ab.sh <parent-rev> <workload> <seed> <pairs> <outdir>
#
# The parent side runs from <parent-rev>'s committed files, extracted once
# with git archive under .bench_build/ab-<commit>/ (no worktree is
# registered, so an interrupted run leaves nothing behind in .git); the
# change side runs from the working tree, uncommitted edits included. Each
# of the <pairs> pairs runs bench/run.sh once per side with its default
# 20 s window, the side that goes first alternating from pair to pair, so
# a drift of the host lands on both sides alike. The runs append to
# <outdir>/parent-seed<seed>.jsonl and <outdir>/change-seed<seed>.jsonl,
# and the script ends with bench/run.sh -compare on the two files. It
# only calls bench/run.sh, which builds each side from its own tree.
set -euo pipefail

if [ $# -ne 5 ]; then
	echo "usage: bash scripts/ab.sh <parent-rev> <workload> <seed> <pairs> <outdir>" >&2
	exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4 out=$5

root=$(pwd)
sha=$(git rev-parse --verify "$rev^{commit}")
parent="$root/.bench_build/ab-$sha"
if [ ! -d "$parent" ]; then
	rm -rf "$parent.tmp"
	mkdir -p "$parent.tmp"
	git archive "$sha" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi
mkdir -p "$out"
out=$(cd "$out" && pwd)

# side <parent|change> <tree> <pair>: one run; a failed run (a check or a
# guard) is still a line in the result file, which -compare reports.
side() {
	echo "ab: pair $3/$pairs: $1" >&2
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0 \
		--out "$out/$1-seed$seed.jsonl") >/dev/null || echo "ab: the $1 run failed" >&2
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		side parent "$parent" "$i"
		side change "$root" "$i"
	else
		side change "$root" "$i"
		side parent "$parent" "$i"
	fi
done
bash bench/run.sh -compare "$out/parent-seed$seed.jsonl" "$out/change-seed$seed.jsonl"
