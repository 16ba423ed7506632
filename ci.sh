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
# E13 exits non-zero if the planned relational engine disagrees with
# Naive (n <= 500) or, on the dense fallback, with the 4-edge walk count
# 1'A^4 1, or if the planner takes a full n^k complement on conjunctive
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
# hub-skewed data, the adaptive feedback loop never re-plans, the
# uniform, histogram and re-planned counts differ or a small instance
# disagrees with Naive, or incrementally maintained statistics drift
# from recollection — the agreement gate for the statistics layer and
# the adaptive planner.
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
# Structure.induced is a slice of the incidence indexes, so its cost must
# grow with the cover weight (Σ|X|, linear on bounded degree), not with
# #clusters x size: a traced sweep-cold run times it over every kernel
# cluster of a radius-2 cover at n=1000 and n=4000 and fits the log-log
# slope (data.induced_slope); the gate fails above 1.3.
python3 focbench/run.py --workload sweep-cold --seed 1 --seconds 5 --trace 1 \
  > /tmp/ci_sweep_cold.txt
induced_slope=$(tail -1 /tmp/ci_sweep_cold.txt | python3 -c \
  'import json, sys; print(json.load(sys.stdin)["metrics"]["data.induced_slope"]["value"])')
python3 -c "import sys; sys.exit(0 if $induced_slope <= 1.3 else 1)" || {
  echo "ci: data.induced_slope $induced_slope > 1.3"
  exit 1
}
dune exec bin/foc_cli.exe -- gen -n 300 --class random-tree --colours \
  -o /tmp/ci_tree.foc
# A traced run must lose no span: its --stats line reports the ring's
# drops, and trace-check fails on a file that records any.
no_drops() {
  grep -q ' trace.dropped_events=0' "$1" || {
    echo "ci: $1 reports dropped trace events"
    exit 1
  }
}
dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc \
  "#(x,y). (R(x) & E(x,y))" -e cover --jobs 2 \
  --trace /tmp/ci_trace.json --stats --metrics > /tmp/ci_trace_out.txt
cat /tmp/ci_trace_out.txt
no_drops /tmp/ci_trace_out.txt
dune exec bin/foc_cli.exe -- trace-check /tmp/ci_trace.json
# The Splitter's rounds run inside the parallel cluster sweep: its
# splitter.round and remove spans, recorded on worker domains too, must
# be in the trace and nest within each domain (trace-check fails on a
# partial overlap).
dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc \
  "#(x,y). (R(x) & !E(x,y) & B(y))" -e splitter --jobs 2 \
  --trace /tmp/ci_trace_splitter.json --stats > /tmp/ci_trace_splitter_out.txt
cat /tmp/ci_trace_splitter_out.txt
no_drops /tmp/ci_trace_splitter_out.txt
dune exec bin/foc_cli.exe -- trace-check /tmp/ci_trace_splitter.json
for span in splitter.round remove; do
  grep -q "\"name\": \"$span\"" /tmp/ci_trace_splitter.json || {
    echo "ci: the splitter trace has no $span span"
    exit 1
  }
done
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
# Every back-end, Splitter included, supplies only its basic-term sweep to
# the one cl-term evaluator: the four must print the same answer on a
# two-variable term and on a term with a width-0 ground leaf (#(). (true)),
# Splitter must really play removal rounds on the first, and the covers
# Cover and Splitter sweep over must show in engine.covers_built.
for q in '#(x,y). (R(x) & !E(x,y) & B(y))' '#(x). (R(x)) + #(). (true)'; do
  want=""
  for e in direct cover splitter hanf; do
    dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc "$q" -e "$e" \
      --jobs 1 --stats > /tmp/ci_backend_out.txt 2>&1
    got=$(grep -E '^[0-9]+$' /tmp/ci_backend_out.txt)
    [ -n "$got" ] && { [ -z "$want" ] || [ "$got" = "$want" ]; } || {
      echo "ci: $e answers '$got' on '$q', direct answers '$want'"
      exit 1
    }
    want=$got
    if [ "$e" = cover ] || [ "$e" = splitter ]; then
      covers=$(tr ' ' '\n' < /tmp/ci_backend_out.txt \
        | awk -F= '$1 == "engine.covers_built" { print $2 }')
      [ "${covers:-0}" -gt 0 ] || {
        echo "ci: $e counted no covers on '$q'"
        exit 1
      }
    fi
    if [ "$e" = splitter ] && [ "$q" = '#(x,y). (R(x) & !E(x,y) & B(y))' ]
    then
      removals=$(tr ' ' '\n' < /tmp/ci_backend_out.txt \
        | awk -F= '$1 == "engine.removals" { print $2 }')
      [ "${removals:-0}" -gt 0 ] || {
        echo "ci: splitter played no removal rounds on '$q'"
        exit 1
      }
    fi
  done
done
# The compiled body is checked at the placement level where its variables
# are bound: R(x) rejects an anchor before its ball is computed, so Direct
# computes exactly one ball per R-element on the sweep term.
PQ='#(x,y). (R(x) & !E(x,y) & B(y))'
balls=$(dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc "$PQ" \
  -e direct --jobs 1 --stats 2>&1 | tr ' ' '\n' \
  | awk -F= '$1 == "ball.computed" { print $2 }')
reds=$(dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc '#(x). (R(x))' \
  -e direct | grep -E '^[0-9]+$')
[ -n "$reds" ] && [ "$balls" = "$reds" ] || {
  echo "ci: direct computed '$balls' balls on '$PQ', |R| is '$reds'"
  exit 1
}
# A cl-term with only a sentence leaf needs no cover.
dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc '#(). (true)' \
  -e cover --jobs 1 --stats 2>&1 | grep -q 'engine.covers_built=0' || {
  echo "ci: cover built a cover for '#(). (true)'"
  exit 1
}
# Hanf partitions are memoised per evaluation: the sweep term needs two
# type radii, so a cold Hanf count builds exactly two partitions, and its
# answer must equal Direct's at every jobs setting. Refinement singles out
# elements before any exact key is computed, so fewer balls are
# canonicalised than there are elements; a traced run must pass
# trace-check (the refine, keys and group spans nest).
dune exec bin/foc_cli.exe -- gen -n 300 --class bounded-degree-3 --colours \
  -o /tmp/ci_bd3.foc
HQ='#(x,y). (R(x) & !E(x,y) & B(y))'
dune exec bin/foc_cli.exe -- count -s /tmp/ci_bd3.foc "$HQ" -e hanf \
  --jobs 1 --stats > /tmp/ci_hanf_out.txt 2>&1
hanf=$(grep -E '^[0-9]+$' /tmp/ci_hanf_out.txt)
direct=$(dune exec bin/foc_cli.exe -- count -s /tmp/ci_bd3.foc "$HQ" \
  -e direct | grep -E '^[0-9]+$')
[ -n "$hanf" ] && [ "$hanf" = "$direct" ] || {
  echo "ci: hanf count '$hanf' disagrees with direct '$direct'"
  exit 1
}
grep -q 'engine.hanf_partitions_built=2' /tmp/ci_hanf_out.txt || {
  echo "ci: hanf count did not build exactly two partitions"
  exit 1
}
dune exec bin/foc_cli.exe -- count -s /tmp/ci_bd3.foc "$HQ" -e hanf \
  --jobs 2 --trace /tmp/ci_trace_hanf.json --stats > /tmp/ci_trace_hanf_out.txt
no_drops /tmp/ci_trace_hanf_out.txt
hanf2=$(grep -E '^[0-9]+$' /tmp/ci_trace_hanf_out.txt)
[ "$hanf2" = "$hanf" ] || {
  echo "ci: hanf count at --jobs 2 '$hanf2' differs from --jobs 1 '$hanf'"
  exit 1
}
dune exec bin/foc_cli.exe -- trace-check /tmp/ci_trace_hanf.json
hanf_stat() {
  tr ' ' '\n' < /tmp/ci_hanf_out.txt | awk -F= -v k="$1" '$1 == k { print $2 }'
}
elements=$(hanf_stat hanf.elements)
canonicalised=$(hanf_stat hanf.canonicalised)
[ -n "$elements" ] && [ -n "$canonicalised" ] \
  && [ "$canonicalised" -lt "$elements" ] || {
  echo "ci: hanf canonicalised '$canonicalised' of '$elements' elements"
  exit 1
}
# A negation over variables no positive conjunct binds runs as one
# leapfrog search over the domain: relalg must count what naive counts.
UQ='#(x,y,z). (R(x) & !E(y,z))'
uq() { dune exec bin/foc_cli.exe -- count -s /tmp/ci_tree.foc "$UQ" -e "$1" | head -1; }
[ "$(uq relalg)" = "$(uq naive)" ] || { echo "ci: relalg and naive disagree on '$UQ'"; exit 1; }
# A counting head term is evaluated at the rows a page emits: opening the
# cursor and reading a page builds no cl-term.
dune exec bin/foc_cli.exe -- query -s /tmp/ci_tree.foc --head x --head y \
  --term '#(z). E(y,z)' --body 'E(x,y) & B(x)' --page 8 --stats 2>&1 \
  | grep -q 'engine.clterms_built=0' || {
  echo "ci: a paged counting-head query built a cl-term"
  exit 1
}
# A disjunctive body streams through the table producer (the planned
# search, its last join lazy), and its rows are the first rows of the
# materialised answer.
DQ='E(x,y) & (R(y) | B(y))'
dune exec bin/foc_cli.exe -- query -s /tmp/ci_tree.foc --head x --head y \
  --body "$DQ" --page 8 > /tmp/ci_disj_paged.txt
grep -q '(streamed, producer=table' /tmp/ci_disj_paged.txt || {
  echo "ci: '$DQ' did not stream through the table producer"
  exit 1
}
dune exec bin/foc_cli.exe -- query -s /tmp/ci_tree.foc --head x --head y \
  --body "$DQ" > /tmp/ci_disj_full.txt
[ "$(grep '|' /tmp/ci_disj_paged.txt)" = "$(grep '|' /tmp/ci_disj_full.txt)" ] \
  && [ "$(grep -c '|' /tmp/ci_disj_paged.txt)" -gt 0 ] || {
  echo "ci: paged rows of '$DQ' differ from the materialised query"
  exit 1
}
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
# The same round trip on a parallel Cover batch: its workers memoise their
# own misses and the session adopts them after the join, so repeating the
# batch builds no further cover.
batch_covers() {
  dune exec bin/foc_cli.exe -- batch -s /tmp/ci_tree.foc -e cover --jobs 2 \
    --repeat "$1" --stats /tmp/ci_batch.txt > /tmp/ci_batch_cover_out.txt
  got=$(grep -E '^(true|false)$' /tmp/ci_batch_cover_out.txt | tr '\n' ' ')
  [ "$got" = "$a $b " ] || {
    echo "ci: cover batch round-trip mismatch: got '$got' want '$a $b'" >&2
    exit 1
  }
  tr ' ' '\n' < /tmp/ci_batch_cover_out.txt \
    | awk -F= '$1 == "engine.covers_built" { print $2 }'
}
covers1=$(batch_covers 1)
covers3=$(batch_covers 3)
[ -n "$covers1" ] && [ "$covers1" = "$covers3" ] || {
  echo "ci: a repeated cover batch built covers: x1=$covers1 x3=$covers3"
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
# a conjunctive body with a negated atom streams through the leapfrog walk
# over the wire as well (seek-and-skip on !R), and its pages must add up to
# exactly the rows of a local, materialised foc query for the same body
"$FOC" query --socket "$SOCK" --timeout 10 --head x --head y \
  --body "E(x,y) & !R(y)" --limit 1000 --page 3 > /tmp/ci_neg_remote.txt
grep -q '^# [0-9]* rows, .*(streamed, producer=walk' /tmp/ci_neg_remote.txt || {
  echo "ci: remote negated-atom query did not stream through the walk"
  exit 1
}
"$FOC" query -s /tmp/ci_tree.foc --head x --head y \
  --body "E(x,y) & !R(y)" --limit 1000 > /tmp/ci_neg_local.txt
[ "$(grep '|' /tmp/ci_neg_remote.txt)" = "$(grep '|' /tmp/ci_neg_local.txt)" ] \
  && [ "$(grep -c '|' /tmp/ci_neg_local.txt)" -gt 0 ] || {
  echo "ci: remote negated-atom rows differ from the local query"
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
