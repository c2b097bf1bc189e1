#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 build + test suite.
# Everything runs offline against the vendored stub crates; a clean exit
# here is what CI (and the next PR) expects to inherit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> doc paths (every repo path the docs name in backticks exists)"
# A backticked token containing `/` whose first component is a top-level
# directory of the repo must exist (a `:LINE` suffix is allowed).
# `benchmark/BENCHMARK.md` is not scanned: the benchmark package changes
# only with the benchmark.
python3 - README.md DESIGN.md EXPERIMENTS.md CHANGELOG.md docs/*.md <<'EOF'
import os, re, sys
roots = {e for e in os.listdir(".") if os.path.isdir(e) and not e.startswith(".")} - {"target"}
dead = []
for doc in sys.argv[1:]:
    for n, line in enumerate(open(doc, encoding="utf-8"), 1):
        for tok in re.findall(r"`([^`\s]+)`", line):
            path = re.sub(r":\d+(-\d+)?$", "", tok).rstrip("/")
            if "/" not in path or not re.fullmatch(r"[\w.\-/]+", path):
                continue
            if path.split("/")[0] in roots and not os.path.exists(path):
                dead.append(f"{doc}:{n}: `{tok}` does not exist")
if dead:
    sys.exit("\n".join(dead))
EOF

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo doc --workspace (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> tier-1: cargo build --release"
cargo build --release -q
# The root build only compiles dependency *libraries*; the cminc binary
# lives in the cli crate and must be requested explicitly so the
# report smoke below never runs a stale binary.
cargo build --release -q -p ipra-cli

echo "==> tier-1: cargo test"
cargo test -q

# The root package's tests ran in the tier-1 step above.
echo "==> workspace tests (every crate but the root package)"
cargo test --workspace --exclude ipra-repro -q

# The bench reports land under target/check/ for inspection; the committed
# BENCH_*.json files change only through an explicit `--out BENCH_x.json`.
bench_out=target/check
mkdir -p "$bench_out"

echo "==> simulator benchmark (both engines; parity, counter identity and the 1.2x scaled-64 floor gated)"
cargo run --release -q -p ipra-bench --bin sim_bench -- --check --out "$bench_out/BENCH_sim.json"
test -s "$bench_out/BENCH_sim.json"

echo "==> compile-time benchmark (8/64/256 modules, cache checks on, cold scaling 512-4096 and phases 1 and 2 over 1k-8k-statement procedures gated at 2.5x per doubling)"
cargo run --release -q -p ipra-bench --bin compile_bench -- --check --out "$bench_out/BENCH_compile.json"
test -s "$bench_out/BENCH_compile.json"

echo "==> cminc report smoke (two runs must be byte-identical)"
report_dir="$(mktemp -d)"
trap 'rm -rf "$report_dir"' EXIT
cat > "$report_dir/counter.cmin" <<'EOF'
static int hits;
int total;
int bump(int k) { hits = hits + 1; total = total + k; return total; }
int hits_of() { return hits; }
EOF
cat > "$report_dir/app.cmin" <<'EOF'
extern int total;
extern int bump(int);
extern int hits_of();
int main() {
    for (int i = 0; i < 50; i = i + 1) { bump(i); }
    out(total);
    out(hits_of());
    return total;
}
EOF
cminc=target/release/cminc
for i in 1 2; do
  "$cminc" report "$report_dir/counter.cmin" "$report_dir/app.cmin" \
    --config-b C --json "$report_dir/report$i.json" > "$report_dir/table$i.txt"
done
cmp "$report_dir/report1.json" "$report_dir/report2.json"
cmp "$report_dir/table1.txt" "$report_dir/table2.txt"
grep -q '"reasons"' "$report_dir/report1.json"

echo "==> fuzz smoke (fixed seed, two jobs widths must agree byte-for-byte)"
"$cminc" fuzz --seed 1 --iters 150 --jobs 2 > "$report_dir/fuzz2.txt"
"$cminc" fuzz --seed 1 --iters 150 --jobs 8 > "$report_dir/fuzz8.txt"
cmp "$report_dir/fuzz2.txt" "$report_dir/fuzz8.txt"
grep -q '150 iterations, 0 failure(s)' "$report_dir/fuzz2.txt"

echo "==> regression corpus replay"
cargo test -q --test corpus

echo "==> separate-compile smoke (artifact pipeline == one-shot build, byte-for-byte)"
# A Figure-3-shaped program: main(A) -> {B, C}, B -> {D, E}, C -> {F, G},
# G -> H, with shared globals g1-g3 split across two modules.
sep="$report_dir/sep"
mkdir -p "$sep"
cat > "$sep/m1.cmin" <<'EOF'
int g1;
int g2;
int g3;
extern int cc(int);
int dd(int x) { g1 = g1 + x; return g1; }
int ee(int x) { g2 = g2 + x; return g2; }
int bb(int x) { return dd(x) + ee(x + 1); }
int main() {
    int t = 0;
    for (int i = 0; i < 10; i = i + 1) { t = t + bb(i) + cc(i); }
    out(t);
    out(g1);
    out(g2);
    out(g3);
    return 0;
}
EOF
cat > "$sep/m2.cmin" <<'EOF'
extern int g1;
extern int g3;
static int h_calls;
int hh(int x) { h_calls = h_calls + 1; return x + h_calls; }
int gg(int x) { g3 = g3 + hh(x); return g3; }
int ff(int x) { return x * 2 + g1; }
int cc(int x) { return ff(x) + gg(x); }
EOF
ccache="$sep/.ccache"
"$cminc" c "$sep/m1.cmin" -o "$sep/m1.vo" --summary "$sep/m1.csum" --cache-dir "$ccache" 2>/dev/null
"$cminc" c "$sep/m2.cmin" -o "$sep/m2.vo" --summary "$sep/m2.csum" --cache-dir "$ccache" 2>/dev/null
"$cminc" analyze "$sep/m1.csum" "$sep/m2.csum" --config C -o "$sep/prog.cdir"
# Without --summary, `c` writes each summary beside its object, never into
# the working directory.
"$cminc" c "$sep/m1.cmin" -o "$sep/m1.vo" --dir "$sep/prog.cdir" --cache-dir "$ccache" 2>/dev/null
"$cminc" c "$sep/m2.cmin" -o "$sep/m2.vo" --dir "$sep/prog.cdir" --cache-dir "$ccache" 2>/dev/null
if compgen -G '*.csum' > /dev/null; then
  echo "c --dir left summaries in the working directory: $(echo *.csum)" >&2
  exit 1
fi
"$cminc" link "$sep/m1.vo" "$sep/m2.vo" -o "$sep/prog.vx"
"$cminc" verify "$sep/m1.vo" "$sep/m2.vo" --db "$sep/prog.cdir"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C -o "$sep/prog2.vx" > /dev/null
cmp "$sep/prog.vx" "$sep/prog2.vx"
"$cminc" run "$sep/prog.vx" 2>/dev/null > "$sep/sep-run.txt"
"$cminc" run "$sep/prog2.vx" 2>/dev/null > "$sep/build-run.txt"
cmp "$sep/sep-run.txt" "$sep/build-run.txt"

echo "==> engine parity smoke (fast vs reference: identical output, stats, attribution)"
"$cminc" run "$sep/prog.vx" --engine fast --stats-json "$sep/fast-stats.json" 2>/dev/null > "$sep/fast-run.txt"
"$cminc" run "$sep/prog.vx" --engine ref --stats-json "$sep/ref-stats.json" 2>/dev/null > "$sep/ref-run.txt"
cmp "$sep/fast-run.txt" "$sep/ref-run.txt"
cmp "$sep/fast-stats.json" "$sep/ref-stats.json"
"$cminc" objdump "$sep/prog.vx" > /dev/null
"$cminc" objdump "$sep/prog.cdir" > /dev/null

echo "==> cross-target smoke (vpr bytes match the goldens; rv32 builds, verifies, runs identically)"
# The machine-description refactor must never move a VPR byte: the linked
# executable, both summaries and the directives are compared against the
# pre-refactor goldens.
cmp "$sep/prog.vx" scripts/goldens/sep_C.vx
cmp "$sep/m1.csum" scripts/goldens/sep_m1.csum
cmp "$sep/m2.csum" scripts/goldens/sep_m2.csum
cmp "$sep/prog.cdir" scripts/goldens/sep_C.cdir
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --target rv32 --verify \
  -o "$sep/prog-rv32.vx" > /dev/null
"$cminc" run "$sep/prog-rv32.vx" 2>/dev/null > "$sep/rv32-run.txt"
cmp "$sep/sep-run.txt" "$sep/rv32-run.txt"
# Headers name the target (objdump output lands in a file first: `grep -q`
# on a pipe would close it mid-print and SIGPIPE the tool under pipefail).
"$cminc" objdump "$sep/prog-rv32.vx" > "$sep/rv32-dump.txt"
grep -q 'target rv32' "$sep/rv32-dump.txt"
"$cminc" objdump "$sep/prog.vx" > "$sep/vpr-dump.txt"
grep -q 'target vpr' "$sep/vpr-dump.txt"

echo "==> rv32 separate-compile smoke (artifact pipeline == one-shot build, byte-for-byte)"
rv="$sep/rv32"
mkdir -p "$rv"
for m in m1 m2; do
  "$cminc" c "$sep/$m.cmin" --target rv32 -o "$rv/$m.vo" 2>/dev/null
done
# Objects built with no database verify against RV32's standard convention.
"$cminc" verify "$rv/m1.vo" "$rv/m2.vo"
"$cminc" analyze "$rv/m1.csum" "$rv/m2.csum" --config C --target rv32 -o "$rv/prog.cdir"
for m in m1 m2; do
  "$cminc" c "$sep/$m.cmin" --target rv32 --dir "$rv/prog.cdir" -o "$rv/$m.vo" 2>/dev/null
done
"$cminc" link "$rv/m1.vo" "$rv/m2.vo" -o "$rv/prog.vx"
"$cminc" verify "$rv/m1.vo" "$rv/m2.vo" --db "$rv/prog.cdir"
cmp "$rv/prog.vx" "$sep/prog-rv32.vx"

echo "==> telemetry smoke (Chrome-trace shape; metrics byte-identical across jobs widths)"
tele="$report_dir/tele"
mkdir -p "$tele"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --run -j 4 \
  --trace-out "$tele/trace.json" --metrics-out "$tele/m1.json" > /dev/null 2>&1
python3 - "$tele/trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty trace"
stacks = {}
for e in events:
    assert e["pid"] == 1, "pid is always 1"
    assert isinstance(e["tid"], int) and isinstance(e["ts"], int)
    stack = stacks.setdefault(e["tid"], [])
    if e["ph"] == "B":
        stack.append(e["name"])
    elif e["ph"] == "E":
        assert stack and stack.pop() == e["name"], f"unbalanced span {e['name']}"
    else:
        raise AssertionError(f"unexpected ph {e['ph']!r}")
assert all(not s for s in stacks.values()), "unfinished spans"
names = {e["name"] for e in events}
for want in ("build", "phase1", "analyze", "phase2", "link"):
    assert want in names, f"missing {want} span"
assert any(e["tid"] != 0 for e in events), "no worker-lane spans"
print(f"trace ok: {len(events)} events across {len(stacks)} lanes")
EOF
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --run -j 1 \
  --metrics-out "$tele/m2.json" > /dev/null 2>&1
cmp "$tele/m1.json" "$tele/m2.json"
grep -q '"sim.cycles"' "$tele/m1.json"
# The cold build's cache counters: both modules missed phase 1 and were
# compiled in phase 2. The run's per-opcode-class retirement counts too.
grep -q '"phase1.misses": 2' "$tele/m1.json"
grep -q '"phase2.recompiled": 2' "$tele/m1.json"
grep -q '"sim.op.' "$tele/m1.json"
# The profiler must render identically on both engines.
"$cminc" profile "$sep/prog.vx" --top 5 > "$tele/profile-fast.txt" 2>/dev/null
"$cminc" profile "$sep/prog.vx" --top 5 --engine ref > "$tele/profile-ref.txt" 2>/dev/null
cmp "$tele/profile-fast.txt" "$tele/profile-ref.txt"
grep -q 'procedures (self cycles):' "$tele/profile-fast.txt"
"$cminc" fuzz --seed 1 --iters 5 --metrics-out "$tele/fuzz.json" > /dev/null 2>&1
grep -q '"fuzz.iterations": 5' "$tele/fuzz.json"

echo "==> persistent cache smoke (second process recompiles only the edited module, reuses the analysis)"
bcache="$sep/.bcache"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --cache-dir "$bcache" -o "$sep/cache1.vx" > /dev/null
# The edit moves m2's code but not its summary, so the analysis comes
# off disk.
sed -i 's/x \* 2/x \* 3/' "$sep/m2.cmin"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --cache-dir "$bcache" --stats \
  --metrics-out "$sep/cache-metrics.json" -o "$sep/cache2.vx" > "$sep/cache-stats.txt" 2>&1
grep -q 'recompiled: m2$' "$sep/cache-stats.txt"
grep -q '"analyze.disk_hits": 1' "$sep/cache-metrics.json"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C -o "$sep/nocache.vx" > /dev/null
cmp "$sep/cache2.vx" "$sep/nocache.vx"
# Two builds of the warm directory in one process: only the first reads
# disk, and the second decodes the frames the first left in memory.
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --cache-dir "$bcache" --repeat 2 \
  --metrics-out "$sep/cache-repeat.json" -o "$sep/cache3.vx" > /dev/null 2>&1
grep -q '"phase1.disk_hits": 2' "$sep/cache-repeat.json"
grep -q '"phase1.hits": 4' "$sep/cache-repeat.json"
cmp "$sep/cache3.vx" "$sep/nocache.vx"
# The disk tier is two files: the pack of frames and its index.
cache_files="$(ls -A "$bcache" | tr '\n' ' ')"
if [ "$cache_files" != "frames-v1.idx frames-v1.pack " ]; then
  echo "cache directory holds: $cache_files" >&2
  exit 1
fi

echo "==> concurrent cache smoke (two processes append to one cache directory)"
pcache="$sep/.pcache"
"$cminc" c "$sep/m1.cmin" -o "$sep/pm1.vo" --summary "$sep/pm1.csum" --cache-dir "$pcache" 2>/dev/null &
first=$!
"$cminc" c "$sep/m2.cmin" -o "$sep/pm2.vo" --summary "$sep/pm2.csum" --cache-dir "$pcache" 2>/dev/null &
second=$!
wait "$first"
wait "$second"
for m in m1 m2; do
  "$cminc" c "$sep/$m.cmin" -o "$sep/p$m.vo" --summary "$sep/p$m.csum" --cache-dir "$pcache" \
    2> "$sep/p$m-c.txt"
  grep -q '(phase1 hit, phase2 hit)' "$sep/p$m-c.txt"
done

echo "==> .vlib link smoke (unresolved library callee: clean failure, then trap stubs)"
cat > "$sep/libm.cmin" <<'EOF'
extern int ghost(int);
int helper(int k) { if (k) { return ghost(k); } return k + 5; }
EOF
cat > "$sep/app.cmin" <<'EOF'
extern int helper(int);
int main() { out(helper(in())); return 0; }
EOF
"$cminc" c "$sep/libm.cmin" -o "$sep/libm.vo" --summary "$sep/libm.csum" 2>/dev/null
"$cminc" lib "$sep/libm.vo" -o "$sep/mylib.vlib"
"$cminc" c "$sep/app.cmin" -o "$sep/app.vo" --summary "$sep/app.csum" 2>/dev/null
if "$cminc" link "$sep/app.vo" "$sep/mylib.vlib" -o "$sep/bad.vx" 2> "$sep/link-err.txt"; then
  echo "link with an unresolved callee unexpectedly succeeded" >&2
  exit 1
fi
grep -q 'ghost' "$sep/link-err.txt"
"$cminc" link "$sep/app.vo" "$sep/mylib.vlib" --allow-undefined -o "$sep/app.vx"
"$cminc" run "$sep/app.vx" --input "0" 2>/dev/null | grep -qx '5'
"$cminc" objdump "$sep/mylib.vlib" > /dev/null

echo "==> alias precision smoke (config P promotes strictly more than C on pointer code)"
al="$report_dir/alias"
mkdir -p "$al"
cat > "$al/hot.cmin" <<'EOF'
int counter;
int scratch;
int step(int k) { counter = counter + k; return counter; }
int peek(int p) { return (*p); }
static int never_called(int x) {
    int p = &counter;
    *p = x;
    return (*p);
}
EOF
cat > "$al/papp.cmin" <<'EOF'
extern int counter;
extern int scratch;
extern int step(int);
extern int peek(int);
int main() {
    for (int i = 0; i < 40; i = i + 1) {
        step(i);
        scratch = scratch + peek(&scratch);
    }
    out(counter);
    out(scratch);
    return 0;
}
EOF
# Behavior must be bit-identical across the two configurations.
"$cminc" build "$al/hot.cmin" "$al/papp.cmin" --config C -o "$al/c.vx" > /dev/null
"$cminc" build "$al/hot.cmin" "$al/papp.cmin" --config P -o "$al/p.vx" > /dev/null
"$cminc" run "$al/c.vx" 2>/dev/null > "$al/c-run.txt"
"$cminc" run "$al/p.vx" 2>/dev/null > "$al/p-run.txt"
cmp "$al/c-run.txt" "$al/p-run.txt"
# The points-to solver must promote strictly more globals than the blanket
# address-taken flags: `counter` only escapes in dead code.
"$cminc" c "$al/hot.cmin" -o "$al/hot.vo" --summary "$al/hot.csum" 2>/dev/null
"$cminc" c "$al/papp.cmin" -o "$al/papp.vo" --summary "$al/papp.csum" 2>/dev/null
"$cminc" analyze "$al/hot.csum" "$al/papp.csum" --config C -o "$al/c.cdir"
"$cminc" analyze "$al/hot.csum" "$al/papp.csum" --config P -o "$al/p.cdir"
count_promoted() {
  # `|| true`: a database with zero promotions is a legal count, not an error.
  "$cminc" objdump "$1" | { grep '^  promote' || true; } | awk '{print $2}' | sort -u | wc -l
}
nc="$(count_promoted "$al/c.cdir")"
np="$(count_promoted "$al/p.cdir")"
if [ "$np" -le "$nc" ]; then
  echo "alias smoke: P promoted $np globals, expected strictly more than C's $nc" >&2
  exit 1
fi
# The alias-aware report must be byte-deterministic, like the C one above.
for i in 1 2; do
  "$cminc" report "$al/hot.cmin" "$al/papp.cmin" \
    --config-b P --json "$al/report$i.json" > "$al/table$i.txt"
done
cmp "$al/report1.json" "$al/report2.json"
cmp "$al/table1.txt" "$al/table2.txt"

echo "==> daemon smoke (serve, concurrent remote builds == local build, drain, fallback)"
dm="$report_dir/daemon"
mkdir -p "$dm"
dsock="$dm/cmind.sock"
"$cminc" serve --socket "$dsock" --shards 2 2> "$dm/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$dsock" ] && break
  sleep 0.1
done
[ -S "$dsock" ] || { echo "daemon socket never appeared" >&2; exit 1; }
"$cminc" remote ping --socket "$dsock" | grep -qx 'pong'
# Two concurrent clients submitting the same program: both must return
# bytes identical to each other and to a plain local `cminc build`.
"$cminc" remote build --socket "$dsock" "$sep/m1.cmin" "$sep/m2.cmin" \
  --config C -o "$dm/r1.vx" 2>/dev/null &
c1=$!
"$cminc" remote build --socket "$dsock" "$sep/m1.cmin" "$sep/m2.cmin" \
  --config C -o "$dm/r2.vx" 2>/dev/null &
c2=$!
wait "$c1" "$c2"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C -o "$dm/local.vx" > /dev/null
cmp "$dm/r1.vx" "$dm/r2.vx"
cmp "$dm/r1.vx" "$dm/local.vx"
# Two concurrent clients on one project (the same module names, so the
# same shard): one rebuilds the program the daemon holds, the other an
# edited copy of it. Each result matches a local build of its sources.
mkdir -p "$dm/edit"
cp "$sep/m1.cmin" "$dm/edit/m1.cmin"
sed 's/h_calls + 1/h_calls + 2/' "$sep/m2.cmin" > "$dm/edit/m2.cmin"
"$cminc" remote build --socket "$dsock" "$sep/m1.cmin" "$sep/m2.cmin" \
  --config C -o "$dm/r3.vx" 2>/dev/null &
c3=$!
"$cminc" remote build --socket "$dsock" "$dm/edit/m1.cmin" "$dm/edit/m2.cmin" \
  --config C -o "$dm/e1.vx" 2>/dev/null &
c4=$!
wait "$c3" "$c4"
"$cminc" build "$dm/edit/m1.cmin" "$dm/edit/m2.cmin" --config C -o "$dm/edit-local.vx" > /dev/null
cmp "$dm/r3.vx" "$dm/local.vx"
cmp "$dm/e1.vx" "$dm/edit-local.vx"
if cmp -s "$dm/e1.vx" "$dm/local.vx"; then
  echo "daemon smoke: the edited copy built the unedited program's bytes" >&2
  exit 1
fi
"$cminc" remote stats --socket "$dsock" > "$dm/stats.json"
grep -q '"daemon.builds"' "$dm/stats.json"
"$cminc" remote shutdown --socket "$dsock"
wait "$serve_pid"
[ ! -e "$dsock" ] || { echo "daemon left its socket file behind" >&2; exit 1; }
# Daemon gone: `remote build` must degrade to a byte-identical local compile.
"$cminc" remote build --socket "$dsock" "$sep/m1.cmin" "$sep/m2.cmin" \
  --config C -o "$dm/fallback.vx" 2> "$dm/fallback.log"
grep -q 'building locally' "$dm/fallback.log"
cmp "$dm/fallback.vx" "$dm/local.vx"

echo "==> daemon benchmark (cold/warm/N-client throughput and dedup gated, responses byte-checked)"
cargo run --release -q -p ipra-bench --bin daemon_bench -- --check \
  --out "$bench_out/BENCH_daemon.json"
test -s "$bench_out/BENCH_daemon.json"
grep -q '"warm_n_over_cold_1"' "$bench_out/BENCH_daemon.json"

echo "All checks passed."
