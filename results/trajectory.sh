#!/usr/bin/env bash
# Records the serving benchmark's trajectory against one fixed anchor, so
# that every performance claim is a ratio to the same baseline and ratios
# from different changes can be set side by side.
#
#   bash results/trajectory.sh [-p PAIRS] [-s SECONDS] [-w "WORKLOAD ..."]
#                              [-o FILE] [REV ...]
#
# The anchor is fixed (f9ff5ce, below): every row of the file is a
# ratio to it, and TestTrajectorySchema rejects a row against any other.
# Each REV is a commit-ish, or "." for the working tree (tracked and
# untracked, non-ignored files). Default: HEAD. For every REV and workload
# the script runs PAIRS ABBA pairs of `-workload W -seed i -seconds S
# -trace 0` (odd pairs anchor first, even pairs REV first; pair i uses seed
# i on both sides) and writes one row per (REV, anchor, workload) into FILE
# (default BENCH_trajectory.json at the repository root), replacing an
# earlier row with the same key. A row holds, per end-to-end metric, the
# median REV/anchor ratio over the pairs, the spread of those ratios
# between quartiles, and the anchor's own quartile spread relative to its
# median; a metric whose anchor spread exceeds its bound cannot resolve a
# change of the size the bound allows and is listed under "unresolved".
# The metrics and their bounds are BENCHMARK.json's end_to_end table.
#
# A working-tree row carries commit "worktree" and the tree's parent as its
# base. Measure the working tree as the last step before committing it:
# every later run relabels such rows with the hash of the commit that
# followed their base, so the file ties each row to a commit.
#
# Trees are exported with `git archive` under .bench_build/trajectory/ and
# built with bench/run.sh's build settings; any commit whose bench CLI takes
# -workload/-seed/-seconds/-trace/-out/-commit works as an anchor. Nothing
# is downloaded. Reading steal time and the CPU model needs Linux's /proc;
# elsewhere they read 0 and "unknown".
set -euo pipefail

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
anchor=f9ff5ce
pairs=2
seconds=12
workloads="read_uniform write_durable transfer_xshard hot_unguided hot_guided"
out="$repo/BENCH_trajectory.json"
while getopts "p:s:w:o:" opt; do
	case $opt in
	p) pairs=$OPTARG ;;
	s) seconds=$OPTARG ;;
	w) workloads=$OPTARG ;;
	o) out=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
[ $# -gt 0 ] || set -- HEAD

# The end-to-end metrics and their bounds, from BENCHMARK.json's
# end_to_end entries (each names itself before its bound).
metrics=""
declare -A bound=()
while read -r m b; do
	metrics+="$m "
	bound[$m]=$b
done < <(awk '
	/"end_to_end"/ { e2e = 1; next }
	e2e && /^  \]/ { exit }
	e2e && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	e2e && /"bound"/ { gsub(/[",]/, "", $2); print name, $2 }' "$repo/BENCHMARK.json")
[ -n "$metrics" ] || { echo "trajectory: no end_to_end metrics in BENCHMARK.json" >&2; exit 1; }

# Relabel the working-tree rows whose base has since been committed over.
if [ -f "$out" ]; then
	for b in $(sed -n 's/.*"commit":"worktree","base":"\([0-9a-f]*\)".*/\1/p' "$out" | sort -u); do
		git -C "$repo" merge-base --is-ancestor "$b" HEAD 2>/dev/null || continue
		c="$(git -C "$repo" rev-list --reverse --ancestry-path "$b..HEAD" | sed -n 1p)"
		[ -n "$c" ] || continue
		c="$(git -C "$repo" rev-parse --short=7 "$c")"
		sed -i "s/\"commit\":\"worktree\",\"base\":\"$b\"/\"commit\":\"$c\",\"base\":\"$c\"/" "$out"
	done
fi

build="$repo/.bench_build/trajectory"
mkdir -p "$build"
export GOCACHE="$repo/.bench_build/go-cache" GOMODCACHE="$repo/.bench_build/go-mod" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# tree REV prints the directory holding REV's exported tree with its bench
# binary built, after its id: a short hash, or "worktree".
tree() {
	local id dir
	if [ "$1" = . ]; then
		id=worktree
		dir="$build/worktree"
		rm -rf "$dir"
		mkdir -p "$dir"
		(cd "$repo" && git ls-files -co --exclude-standard -z | xargs -0 tar -cf - --) | tar -xf - -C "$dir"
	else
		id="$(git -C "$repo" rev-parse --short=7 "$1^{commit}")"
		dir="$build/$id"
		if [ ! -x "$dir/gstm-bench" ]; then
			rm -rf "$dir"
			mkdir -p "$dir"
			git -C "$repo" archive "$id" | tar -xf - -C "$dir"
		fi
	fi
	if [ ! -x "$dir/gstm-bench" ]; then
		(cd "$dir/bench" && go build -o "$dir/gstm-bench" .) >&2
	fi
	echo "$id $dir"
}

# runone DIR ID WORKLOAD SEED prints the run's closing result line.
runone() {
	"$1/gstm-bench" -out "$1/bench/out" -commit "$2" -workload "$3" -seed "$4" \
		-seconds "$seconds" -trace 0 2>/dev/null | tail -n 1
}

# value LINE METRIC extracts one metric's value from a result line.
value() {
	sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p" <<<"$1"
}

# quantiles reads numbers and prints "q1 median q3" (linear interpolation).
quantiles() {
	sort -g | awk '{ v[NR] = $1 }
	function q(p,   pos, lo) {
		pos = (NR - 1) * p + 1; lo = int(pos)
		return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
	}
	END { if (NR == 0) { print "0 0 0"; exit } printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

# cpustat prints the aggregate "total steal" jiffies.
cpustat() {
	if [ -r /proc/stat ]; then
		awk '/^cpu / { t = 0; for (i = 2; i <= 9; i++) t += $i; print t, $9; exit }' /proc/stat
	else
		echo "0 0"
	fi
}

cpu_model="$( (grep -m1 '^model name' /proc/cpuinfo 2>/dev/null || echo ': unknown') | sed 's/^[^:]*: *//; s/"/'"'"'/g')"
read -r _ adir < <(tree "$anchor")
anchor_id="$(git -C "$repo" rev-parse --short=7 "$anchor^{commit}")"
base_id="$(git -C "$repo" rev-parse --short=7 HEAD)"

for rev in "$@"; do
	read -r id dir < <(tree "$rev")
	for w in $workloads; do
		declare -A av=() rv=() ratios=()
		failed=0 correct=true
		read -r t0 s0 < <(cpustat)
		for i in $(seq 1 "$pairs"); do
			if ((i % 2 == 1)); then order="anchor rev"; else order="rev anchor"; fi
			for side in $order; do
				if [ $side = anchor ]; then
					line="$(runone "$adir" "$anchor_id" "$w" "$i")"
				else
					line="$(runone "$dir" "$id" "$w" "$i")"
					f="$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")"
					failed=$((failed + ${f:-0}))
					grep -q '"correct":true' <<<"$line" || correct=false
				fi
				for m in $metrics; do
					x="$(value "$line" "$m")"
					[ -n "$x" ] || { echo "trajectory: $side run of $w had no $m: $line" >&2; exit 1; }
					if [ $side = anchor ]; then av[$m]+="$x "; else rv[$m]+="$x "; fi
				done
			done
			for m in $metrics; do
				a="$(awk '{ print $NF }' <<<"${av[$m]}")"
				r="$(awk '{ print $NF }' <<<"${rv[$m]}")"
				ratios[$m]+="$(awk -v a="$a" -v r="$r" 'BEGIN { printf "%.6g", (a == 0 ? 0 : r / a) }') "
			done
		done
		read -r t1 s1 < <(cpustat)
		steal="$(awk -v dt=$((t1 - t0)) -v ds=$((s1 - s0)) 'BEGIN { printf "%.4f", (dt > 0 ? ds / dt : 0) }')"
		fields="" unresolved=""
		for m in $metrics; do
			read -r rq1 rmed rq3 < <(tr ' ' '\n' <<<"${ratios[$m]}" | grep . | quantiles)
			read -r aq1 amed aq3 < <(tr ' ' '\n' <<<"${av[$m]}" | grep . | quantiles)
			spread="$(awk -v a="$aq1" -v b="$aq3" -v m="$amed" 'BEGIN { printf "%.4f", (m == 0 ? 0 : (b - a) / m) }')"
			iqr="$(awk -v a="$rq1" -v b="$rq3" 'BEGIN { printf "%.4f", b - a }')"
			if awk -v s="$spread" -v b="${bound[$m]}" 'BEGIN { exit !(s > b) }'; then
				unresolved+="${unresolved:+,}\"$m\""
			fi
			fields+="${fields:+,}\"$m\":{\"ratio\":$rmed,\"iqr\":$iqr,\"anchor_spread\":$spread,\"bound\":${bound[$m]}}"
		done
		base=$id
		[ "$id" != worktree ] || base=$base_id
		row="{\"commit\":\"$id\",\"base\":\"$base\",\"anchor\":\"$anchor_id\",\"workload\":\"$w\",\"pairs\":$pairs,\"seconds\":$seconds,\"date\":\"$(date -u +%Y-%m-%dT%H:%M:%SZ)\",\"correct\":$correct,\"failed\":$failed,\"metrics\":{$fields},\"unresolved\":[$unresolved],\"host\":{\"nproc\":$(nproc),\"cpu\":\"$cpu_model\",\"steal_frac\":$steal}}"
		echo "$row" >&2
		key="\"commit\":\"$id\",\"base\":\"$base\",\"anchor\":\"$anchor_id\",\"workload\":\"$w\","
		{
			echo "["
			{ [ -f "$out" ] && grep '^{' "$out" | sed 's/,$//' | grep -vF "$key" || true; echo "$row"; } | sed '$!s/$/,/'
			echo "]"
		} >"$out.tmp"
		mv "$out.tmp" "$out"
	done
done
