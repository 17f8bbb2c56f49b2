#!/usr/bin/env bash
# Pins colserved's answers to a fixed set of submissions: single-core,
# maps, adaptive, multicore, sweep and a binary trace upload, with labels
# that are empty or need escaping. Each spec goes twice to a standalone
# durable server (a miss, then a cache hit) and three times through a
# coordinator with two durable workers (a miss, a hit the owner answers,
# then a hit the coordinator answers from the envelope it fetched). Every
# answer is printed with id, node and timestamps removed; a miss is its
# terminal polled document. The standalone and fabric answers of one spec
# must be identical, and the Makefile's serve-golden target compares the
# whole output with cmd/colserved/testdata/serve.golden.
#
#	bash cmd/colserved/servegolden.sh COLSERVED TRACEGEN WORKDIR BASEPORT > out.txt
#
# Ports BASEPORT..BASEPORT+3 are used. WORKDIR/nodes.json is left with the
# coordinator's cluster view after the run.
set -euo pipefail

bin=$1 tracegen=$2 work=$3 port=$4
rm -rf "$work"
mkdir -p "$work/specs" "$work/docs"

pids=()
cleanup() {
	for p in "${pids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
	for p in "${pids[@]}"; do wait "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

waitfor() {
	for _ in $(seq 1 100); do
		curl -fsS "$1" >/dev/null 2>&1 && return 0
		sleep 0.1
	done
	echo "servegolden: $1 never answered" >&2
	return 1
}

cat > "$work/specs/single.json" <<'EOF'
{"label":"golden single","machine":{"sets":16,"ways":4},"workload":{"name":"mpeg-idct","n":4}}
EOF
cat > "$work/specs/maps.json" <<'EOF'
{"label":"maps <&> \"quoted\" \\ \u2028","machine":{"sets":16,"ways":4},"workload":{"name":"stream","size_bytes":16384,"passes":2},"maps":[{"name":"hot","base":0,"size":4096,"columns":[0,1]}]}
EOF
cat > "$work/specs/adaptive.json" <<'EOF'
{"machine":{"sets":16,"ways":4},"workload":{"name":"phaseshift","size_bytes":4096,"phases":4},"adaptive":{"epoch_accesses":1024}}
EOF
cat > "$work/specs/multicore.json" <<'EOF'
{"label":"golden multicore","machine":{"sets":16,"ways":2},"multicore":{"cores":[{"workload":{"name":"mpeg-idct","n":4},"columns":[0,1,2]},{"workload":{"name":"gzip","size_bytes":8192},"columns":[3,4,5,6,7]}]}}
EOF
cat > "$work/specs/sweep.json" <<'EOF'
{"label":"golden sweep","base":{"machine":{"sets":16},"workload":{"name":"stream","size_bytes":8192,"passes":1}},"ways":[1,2,4],"policies":["lru","fifo"]}
EOF
"$tracegen" -workload idct -n 4 -binary -o "$work/specs/upload.bin" 2>/dev/null
specs="single maps adaptive multicore sweep upload"

# submit BASE SPEC OUT: posts SPEC to BASE and writes the answer to OUT,
# polling an accepted job to its terminal document.
submit() {
	local base=$1 spec=$2 out=$3 code
	if [ "$spec" = upload ]; then
		code=$(curl -sS -o "$out" -w '%{http_code}' -H 'Content-Type: application/octet-stream' \
			--data-binary "@$work/specs/upload.bin" "$base/v1/simulate?sets=16&ways=4&label=golden%20upload")
	elif [ "$spec" = sweep ]; then
		code=$(curl -sS -o "$out" -w '%{http_code}' -H 'Content-Type: application/json' \
			--data-binary "@$work/specs/sweep.json" "$base/v1/sweep")
	else
		code=$(curl -sS -o "$out" -w '%{http_code}' -H 'Content-Type: application/json' \
			--data-binary "@$work/specs/$spec.json" "$base/v1/simulate")
	fi
	case $code in
	200) ;;
	202)
		local id state
		id=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$out")
		for _ in $(seq 1 600); do
			curl -fsS -o "$out" "$base/v1/jobs/$id"
			state=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["state"])' "$out")
			case $state in done | failed | canceled) return 0 ;; esac
			sleep 0.05
		done
		echo "servegolden: $spec job $id never finished on $base" >&2
		return 1
		;;
	*)
		echo "servegolden: $spec answered HTTP $code on $base: $(cat "$out")" >&2
		return 1
		;;
	esac
}

# Standalone: a miss, then a hit.
s=http://127.0.0.1:$port
"$bin" -addr "127.0.0.1:$port" -data-dir "$work/standalone" -quiet &
pids+=($!)
waitfor "$s/healthz"
for spec in $specs; do
	submit "$s" "$spec" "$work/docs/standalone-$spec-1.json"
	submit "$s" "$spec" "$work/docs/standalone-$spec-2.json"
done

# Fabric: a miss, a hit relayed from the owner, and a hit the coordinator
# answers once the owner's envelope is resident there.
c=http://127.0.0.1:$((port + 1))
"$bin" -role coordinator -addr "127.0.0.1:$((port + 1))" -quiet &
pids+=($!)
waitfor "$c/healthz"
for i in 1 2; do
	"$bin" -role worker -join "$c" -addr "127.0.0.1:$((port + 1 + i))" -node "w$i" \
		-data-dir "$work/w$i" -heartbeat 100ms -quiet &
	pids+=($!)
done
for _ in $(seq 1 100); do
	alive=$(curl -fsS "$c/fabric/v1/nodes" | python3 -c 'import json,sys; print(sum(w["alive"] for w in json.load(sys.stdin)["workers"]))')
	[ "$alive" = 2 ] && break
	sleep 0.1
done
for spec in $specs; do
	submit "$c" "$spec" "$work/docs/fabric-$spec-1.json"
	submit "$c" "$spec" "$work/docs/fabric-$spec-2.json"
done
# The fills are local reads of a few kilobytes; a second is ample.
sleep 1
for spec in $specs; do
	submit "$c" "$spec" "$work/docs/fabric-$spec-3.json"
done
curl -fsS -o "$work/nodes.json" "$c/fabric/v1/nodes"

python3 - "$work/docs" $specs <<'EOF'
import re, sys
docs, specs = sys.argv[1], sys.argv[2:]
strip = re.compile(r',?"(id|node|submitted_at|started_at|finished_at)":"[^"]*"')
def read(name):
    with open(f"{docs}/{name}.json", encoding="utf-8") as f:
        return strip.sub("", f.read()).replace("{,", "{", 1)
for spec in specs:
    out = {}
    for name in (f"standalone-{spec}-1", f"standalone-{spec}-2",
                 f"fabric-{spec}-1", f"fabric-{spec}-2", f"fabric-{spec}-3"):
        out[name] = read(name)
        sys.stdout.write(f"== {name}\n{out[name]}")
    miss, hit = out[f"standalone-{spec}-1"], out[f"standalone-{spec}-2"]
    if out[f"fabric-{spec}-1"] != miss:
        sys.exit(f"servegolden: {spec}: the fabric's miss differs from the standalone one")
    for n in (2, 3):
        if out[f"fabric-{spec}-{n}"] != hit:
            sys.exit(f"servegolden: {spec}: fabric hit {n - 1} differs from the standalone hit")
EOF
