#!/bin/sh
# bench-pairs.sh BASE WORKLOAD SEED N — the before/after protocol for a
# claim on the benchmark (ROADMAP.md fact 1): N pairs of runs of one
# workload, the bench built from BASE against the bench built from the
# working tree, in alternating order so that a drift of the machine's
# speed falls on both sides alike.
#
# BASE is extracted into a temporary directory (git archive, so an
# interrupted run leaves nothing registered in .git) and each binary
# runs from its own checkout: the bench reads ./BENCHMARK.json and
# writes ./.bench_run there. For each pair it prints the three gated
# metrics of both sides, then for each metric each side's median and
# quartiles, the median of the per-pair ratios (working tree / BASE)
# and how many pairs each side won (lower is better for all three). It
# exits non-zero if any run failed, was not correct, or counted a
# failed operation.
set -eu

if [ $# -ne 4 ]; then
	echo "usage: $0 BASE WORKLOAD SEED N" >&2
	exit 2
fi
base=$1 workload=$2 seed=$3 pairs=$4
go=${GO:-go}
head_dir=$(pwd)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

mkdir "$dir/base"
git archive "$base" | tar -x -C "$dir/base"
(cd "$dir/base" && "$go" build -o "$dir/bench-base" ./bench)
"$go" build -o "$dir/bench-head" ./bench

metrics="cpu_us_per_step rss_mb setup_s"
bad=0

# run SIDE PAIR: one run of SIDE's binary from SIDE's checkout; its
# JSON line goes to $dir/SIDE.PAIR.
run() {
	side_dir=$head_dir
	if [ "$1" = base ]; then side_dir=$dir/base; fi
	if ! (cd "$side_dir" && "$dir/bench-$1" -workload "$workload" -seed "$seed" -trace 0) >"$dir/$1.$2" 2>"$dir/$1.$2.err"; then
		echo "pair $2: the $1 run failed:" >&2
		tail -n 5 "$dir/$1.$2.err" >&2
		bad=1
	fi
	if ! grep -q '"correct":true' "$dir/$1.$2" || ! grep -q '"failed":0,' "$dir/$1.$2"; then
		echo "pair $2: the $1 run was not correct or counted failed operations" >&2
		bad=1
	fi
}

# value SIDE PAIR METRIC prints one metric of one run.
value() {
	sed -n "s/.*\"$3\":{\"value\":\([^,}]*\).*/\1/p" "$dir/$1.$2" | tail -n 1
}

# quantile Q reads numbers, one a line, and prints their Q-quantile
# (linear between the two nearest ranks) to four significant digits.
quantile() {
	sort -g | awk -v q="$1" '{ v[NR] = $1 } END {
		if (NR == 0) exit 1
		r = 1 + q * (NR - 1); i = int(r)
		printf "%.4g\n", (i < NR) ? v[i] + (r - i) * (v[i + 1] - v[i]) : v[NR]
	}'
}

# spread FILE prints the median of FILE's numbers and their quartiles.
spread() {
	printf '%s (quartiles %s–%s)' "$(quantile 0.5 <"$1")" "$(quantile 0.25 <"$1")" "$(quantile 0.75 <"$1")"
}

echo "bench-pairs: $workload, seed $seed, $pairs pairs, base $(git rev-parse --short "$base") against the working tree"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		first=base second=head
	else
		first=head second=base
	fi
	run "$first" "$i"
	run "$second" "$i"
	line="pair $i ($first first):"
	for m in $metrics; do
		b=$(value base "$i" "$m") h=$(value head "$i" "$m")
		line="$line $m $(printf '%.4g' "${b:-0}") -> $(printf '%.4g' "${h:-0}");"
		if [ -n "$b" ] && [ -n "$h" ]; then
			echo "$b" >>"$dir/$m.base"
			echo "$h" >>"$dir/$m.head"
			awk -v b="$b" -v h="$h" 'BEGIN { print h / b }' >>"$dir/$m.ratio"
			awk -v b="$b" -v h="$h" 'BEGIN { print (h < b) ? "head" : (b < h) ? "base" : "tie" }' >>"$dir/$m.won"
		fi
	done
	echo "$line"
	i=$((i + 1))
done

for m in $metrics; do
	if [ ! -s "$dir/$m.ratio" ]; then
		echo "$m: no pair measured it"
		continue
	fi
	printf '%s: median base %s, working tree %s; median pair ratio %s; lower in %s of %s pairs for the working tree, %s for base\n' \
		"$m" "$(spread "$dir/$m.base")" "$(spread "$dir/$m.head")" "$(quantile 0.5 <"$dir/$m.ratio")" \
		"$(grep -c '^head$' "$dir/$m.won" || true)" "$(wc -l <"$dir/$m.won" | tr -d ' ')" \
		"$(grep -c '^base$' "$dir/$m.won" || true)"
done
exit "$bad"
