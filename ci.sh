#!/bin/sh
# CI gate: build, run the test suite, and smoke the compact-ball-engine
# benchmark (E11) so the ball-cache counters and eviction path stay
# exercised on every change, plus the observability pipeline (E12 and a
# traced CLI run whose trace file must be parseable Chrome JSON).
set -e
cd "$(dirname "$0")"
dune build
dune runtest
dune exec bench/main.exe -- --only E11 --smoke
dune exec bench/main.exe -- --only E12 --smoke
# E13 exits non-zero if the planned and unplanned relational engines
# disagree or the planner takes a full n^k complement on conjunctive
# negation — the agreement gate for the columnar kernel + planner.
dune exec bench/main.exe -- --only E13 --smoke
# E14 exits non-zero if a warm session or a batch (jobs 1 and 4) ever
# disagrees with a fresh engine, or if the session hit counters stay
# zero — the agreement gate for the session layer.
dune exec bench/main.exe -- --only E14 --smoke
# E15 drives a real foc-serve daemon with 8 concurrent clients under
# mixed read/write and exits non-zero if any answer disagrees with a
# fresh sequential engine at the version it was served on.
dune exec bench/main.exe -- --only E15 --smoke
# E16 exits non-zero if histograms fail to flip the join order on
# hub-skewed data, the adaptive feedback loop never re-plans, any count
# deviates from the unplanned baseline / Naive, or incrementally
# maintained statistics drift from recollection — the agreement gate
# for the statistics layer and the adaptive planner.
dune exec bench/main.exe -- --only E16 --smoke
# E17 runs the E15 load twice — plain and with the full observability
# stack (per-request timing, slow-query log, bounded-ring tracing) — and
# exits non-zero if any answer differs between the runs or from a fresh
# engine, a timing breakdown exceeds its own total, the slow log or
# trace export fails to fire, or the overhead passes 2x.
dune exec bench/main.exe -- --only E17 --smoke
# E18 exits non-zero if a session restored from a snapshot (+WAL replay)
# ever disagrees with a fresh engine on the updated structure, or if the
# snapshot cold start fails to beat the full artifact rebuild by >=5x —
# the agreement and performance gate for the persistent store.
dune exec bench/main.exe -- --only E18 --smoke
# E19 exits non-zero if a drained enumeration cursor is not bit-identical
# (content and order) to the materialised Relalg answers, or if streaming
# fails to beat materialisation by >=5x on time-to-first-row for the
# output-heavy star workload — the agreement and performance gate for
# constant-delay enumeration.
dune exec bench/main.exe -- --only E19 --smoke
dune exec bin/foc_cli.exe -- gen -n 300 --class random-tree --colours \
  -o /tmp/ci_tree.foc
dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc \
  "#(x,y). (R(x) & E(x,y))" -e cover --jobs 2 \
  --trace /tmp/ci_trace.json --stats --metrics
dune exec bin/foc_cli.exe -- trace-check /tmp/ci_trace.json
# Worker domains record ball counters straight into the engine's registry:
# the --stats line must show the same nonzero lookups (computed + cache
# hits) at jobs 1 and jobs 2 on every back-end with a parallel sweep.
lookups() {
  dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc \
    "#(x,y,z). (R(x) & dist(x,y) <= 1 & dist(y,z) <= 1)" -e "$1" \
    --jobs "$2" --stats 2>&1 \
    | tr ' ' '\n' \
    | awk -F= '$1 == "ball.computed" || $1 == "ball.cache_hits" { n += $2 }
               END { print n + 0 }'
}
for e in direct cover hanf; do
  l1=$(lookups "$e" 1)
  l2=$(lookups "$e" 2)
  [ "$l1" -gt 0 ] && [ "$l1" = "$l2" ] || {
    echo "ci: $e ball lookups differ across jobs: jobs1=$l1 jobs2=$l2"
    exit 1
  }
done
# CLI batch round-trip: session answers must match per-sentence checks
printf 'exists x. (#(y). E(x,y)) >= 1\n#(x,y). (E(x,y) & R(x)) >= 5\n' \
  > /tmp/ci_batch.txt
dune exec bin/foc_cli.exe -- batch -s /tmp/ci_tree.foc --repeat 2 --stats \
  /tmp/ci_batch.txt | tee /tmp/ci_batch_out.txt
a=$(dune exec bin/foc_cli.exe -- check -s /tmp/ci_tree.foc \
  "exists x. (#(y). E(x,y)) >= 1" | head -1)
b=$(dune exec bin/foc_cli.exe -- check -s /tmp/ci_tree.foc \
  "#(x,y). (E(x,y) & R(x)) >= 5" | head -1)
batch_got=$(grep -E '^(true|false)$' /tmp/ci_batch_out.txt | tr '\n' ' ')
[ "$batch_got" = "$a $b " ] || {
  echo "ci: batch round-trip mismatch: got '$batch_got' want '$a $b'"
  exit 1
}
grep -q 'session.compiled_hits=2' /tmp/ci_batch_out.txt || {
  echo "ci: warm batch reported no compiled hits"
  exit 1
}
# serve/call round-trip: daemon on a unix socket, queried over the wire.
# The binary is built above; run it directly so the daemon is a plain
# background process we can wait on.
FOC=_build/default/bin/foc_cli.exe
SOCK=/tmp/ci_serve.sock
SLOWLOG=/tmp/ci_slow.log
rm -f "$SOCK" "$SLOWLOG"
# --slow-ms 0.000001 forces every request over the slow threshold, so the
# round-trip below must leave slow-query lines behind
"$FOC" serve -s /tmp/ci_tree.foc --socket "$SOCK" \
  --slow-ms 0.000001 --slow-log "$SLOWLOG" \
  > /tmp/ci_serve_daemon.log 2>&1 &
SERVE_PID=$!
# a failed gate below must not leave the daemon running
trap '[ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2>/dev/null || true' EXIT
# poll until the daemon answers a ping (or give up after ~5s)
i=0
until "$FOC" call --socket "$SOCK" --timeout 5 '{"op":"ping"}' \
  >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -lt 50 ] || { echo "ci: serve daemon never came up"; exit 1; }
  sleep 0.1
done
"$FOC" call --socket "$SOCK" --timeout 10 \
  '{"op":"check","query":"exists x. (#(y). E(x,y)) >= 1"}' \
  | tee /tmp/ci_serve_out.txt
served=$(grep -o '"result":[a-z]*' /tmp/ci_serve_out.txt | cut -d: -f2)
[ "$served" = "$a" ] || {
  echo "ci: served answer '$served' disagrees with direct check '$a'"
  exit 1
}
# a timing-enabled check must answer with a per-phase breakdown
"$FOC" call --socket "$SOCK" --timeout 10 \
  '{"op":"check","query":"exists x. (#(y). E(x,y)) >= 1","timing":true}' \
  | grep -q '"timing":{"queue_ns":' || {
  echo "ci: timing-enabled check returned no breakdown"
  exit 1
}
# remote explain must tell the planner's story (width 5 exceeds the
# engine's max decomposition width, forcing the baseline join planner)
"$FOC" explain --socket "$SOCK" --timeout 10 \
  '#(v,w,x,y,z). (E(v,w) & E(w,x) & E(x,y) & E(y,z)) >= 1' \
  | tee /tmp/ci_explain_out.txt
grep -q 'join order' /tmp/ci_explain_out.txt || {
  echo "ci: remote explain reported no join order"
  exit 1
}
# the metrics exposition must carry the per-op latency histograms
"$FOC" metrics --socket "$SOCK" --timeout 10 > /tmp/ci_metrics_out.txt
grep -q '# TYPE foc_req_check_ns histogram' /tmp/ci_metrics_out.txt || {
  echo "ci: metrics page missing request histograms"
  exit 1
}
# one top snapshot over the wire keeps the stats op parsing honest
"$FOC" top --socket "$SOCK" --timeout 10 --interval 0.1 --count 1 \
  | grep -q 'read latency' || { echo "ci: foc top produced no view"; exit 1; }
# streaming round-trip: foc query --page drives a cursor over the wire in
# multiple chunks (7 rows / page 3 = 3 fetches) and must report exactly
# the limit, streamed
"$FOC" query --socket "$SOCK" --timeout 10 --head x --head y \
  --body "E(x,y)" --limit 7 --page 3 > /tmp/ci_stream_out.txt
grep -q '^# 7 rows, .*(streamed, producer=' /tmp/ci_stream_out.txt || {
  echo "ci: remote streamed query did not report 7 streamed rows"
  exit 1
}
[ "$(grep -c '|' /tmp/ci_stream_out.txt)" = 7 ] || {
  echo "ci: remote streamed query printed the wrong number of rows"
  exit 1
}
# kill a client mid-stream: open a cursor (chunk 2 leaves it open with
# more:true) and exit without close_cursor — the server must reap it on
# disconnect, so stats settles back to zero open cursors
"$FOC" call --socket "$SOCK" --timeout 10 \
  '{"op":"query","head":["x","y"],"body":"E(x,y)","chunk":2}' \
  | grep -q '"more":true' || {
  echo "ci: streaming query op opened no cursor"
  exit 1
}
sleep 0.3
"$FOC" call --socket "$SOCK" --timeout 10 '{"op":"stats"}' \
  | grep -q '"cursors":0' || {
  echo "ci: abandoned cursor never reaped after client disconnect"
  exit 1
}
"$FOC" call --socket "$SOCK" --timeout 10 \
  '{"op":"insert","rel":"E","tuple":[0,1]}' \
  '{"op":"stats"}' '{"op":"shutdown"}' >/dev/null
wait "$SERVE_PID" || { echo "ci: serve daemon exited non-zero"; exit 1; }
SERVE_PID=""
# every request ran over the forced threshold: the slow log must exist
# and hold properly shaped logfmt lines
grep -q '^msg=slow_query .*total_ms=' "$SLOWLOG" || {
  echo "ci: slow-query log never fired"
  exit 1
}
# persistent-store round trip: serve with --store, apply writes, kill -9
# (no drain, so recovery runs from the startup checkpoint + WAL), restart
# from the store and verify the version and answers survived.
STOREDIR=/tmp/ci_store
Q='exists x. (#(y). E(x,y)) >= 3'
rm -rf "$STOREDIR"
"$FOC" serve -s /tmp/ci_tree.foc --socket "$SOCK" --store "$STOREDIR" \
  --log-level info > /tmp/ci_store_daemon1.log 2>&1 &
SERVE_PID=$!
i=0
until "$FOC" call --socket "$SOCK" --timeout 5 '{"op":"ping"}' \
  >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -lt 50 ] || { echo "ci: store daemon never came up"; exit 1; }
  sleep 0.1
done
"$FOC" call --socket "$SOCK" --timeout 10 \
  '{"op":"insert","rel":"E","tuple":[0,7]}' \
  '{"op":"insert","rel":"E","tuple":[0,9]}' \
  "{\"op\":\"check\",\"query\":\"$Q\"}" > /tmp/ci_store_live.txt
live=$(grep -o '"result":[a-z]*' /tmp/ci_store_live.txt | cut -d: -f2)
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
rm -f "$SOCK"
"$FOC" serve -s /tmp/ci_tree.foc --socket "$SOCK" --store "$STOREDIR" \
  --log-level info > /tmp/ci_store_daemon2.log 2>&1 &
SERVE_PID=$!
i=0
until "$FOC" call --socket "$SOCK" --timeout 5 '{"op":"ping"}' \
  >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -lt 50 ] || { echo "ci: restarted store daemon never came up"; exit 1; }
  sleep 0.1
done
"$FOC" call --socket "$SOCK" --timeout 10 '{"op":"stats"}' \
  "{\"op\":\"check\",\"query\":\"$Q\"}" > /tmp/ci_store_restart.txt
grep -q '"version":2' /tmp/ci_store_restart.txt || {
  echo "ci: restarted daemon lost the pre-kill writes"
  exit 1
}
grep -Eq '"source":"(snapshot|snapshot\+wal n=[0-9]+)"' \
  /tmp/ci_store_restart.txt || {
  echo "ci: restarted daemon did not start from the store"
  exit 1
}
restarted=$(grep -o '"result":[a-z]*' /tmp/ci_store_restart.txt | cut -d: -f2)
[ "$restarted" = "$live" ] || {
  echo "ci: answer changed across kill -9 + store restart:" \
    "'$restarted' vs '$live'"
  exit 1
}
"$FOC" call --socket "$SOCK" --timeout 10 '{"op":"shutdown"}' >/dev/null
wait "$SERVE_PID" || { echo "ci: store daemon exited non-zero"; exit 1; }
SERVE_PID=""
# offline verify-load: answers from the restored session must be
# bit-identical to a fresh engine (foc snapshot load exits 5 otherwise)
"$FOC" snapshot info "$STOREDIR" | grep -q 'crc ok' || {
  echo "ci: snapshot info reported no valid sections"
  exit 1
}
"$FOC" snapshot load --query "$Q" "$STOREDIR" >/dev/null || {
  echo "ci: offline snapshot verify-load failed"
  exit 1
}
