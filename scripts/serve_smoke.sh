#!/usr/bin/env bash
# End-to-end smoke test for `safeopt serve` (docs/service.md), registered as
# a Release-leg ctest (label "examples") by CMakeLists.txt:
#
#   * starts the server on an ephemeral port and parses the announced port
#     from its stdout line;
#   * POSTs /v1/quantify, /v1/optimize and /v1/validate with curl and diffs
#     each response body byte-for-byte against the offline CLI's --json
#     output for the same document (quantify == `safeopt quantify`,
#     optimize == `safeopt run --seed 7`, validate == `safeopt validate`);
#   * sends the 1k-corpus document under deadline_ms=1 and requires the
#     HTTP 504 / deadline_exceeded taxonomy mapping;
#   * sends a grid_search study whose engine build outlasts deadline_ms=1
#     to /v1/optimize and requires a 200 with "converged": false or a 504;
#   * checks GET /v1/stats still answers afterwards and carries the build
#     info string.
#
# Usage: serve_smoke.sh SAFEOPT_BINARY SOURCE_DIR
# Exit: 0 pass, 1 fail, 127 skip (curl or python3 not on PATH).
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: serve_smoke.sh SAFEOPT_BINARY SOURCE_DIR" >&2
  exit 1
fi
BIN=$1
SRC=$2

command -v curl >/dev/null 2>&1 || { echo "SKIP: curl not found" >&2; exit 127; }
command -v python3 >/dev/null 2>&1 || { echo "SKIP: python3 not found" >&2; exit 127; }

MODEL="$SRC/examples/models/cooling_system.ft"
CORPUS="$SRC/examples/corpus/corpus_1k.ft"
WORK=$(mktemp -d)
SERVER_PID=""

cleanup() {
  if [ -n "$SERVER_PID" ]; then
    kill "$SERVER_PID" 2>/dev/null
    wait "$SERVER_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# JSON-encode a study document into a request body. Extra key=value pairs
# (already JSON-typed) are merged in, e.g. `seed 7` or `deadline_ms 1`.
request_body() {
  python3 - "$@" <<'PYEOF'
import json, sys
path = sys.argv[1]
body = {"document": open(path).read(), "model": path}
extra = sys.argv[2:]
for key, value in zip(extra[0::2], extra[1::2]):
    body[key] = json.loads(value)
print(json.dumps(body))
PYEOF
}

"$BIN" serve --port 0 --threads 2 > "$WORK/serve.log" 2> "$WORK/serve.err" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  grep -q "listening on" "$WORK/serve.log" 2>/dev/null && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited early: $(cat "$WORK/serve.err")"
  sleep 0.1
done
PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$WORK/serve.log")
[ -n "$PORT" ] || fail "could not parse the announced port from: $(cat "$WORK/serve.log")"
BASE="http://127.0.0.1:$PORT"

# --- quantify: HTTP body == `safeopt quantify --json` ----------------------
request_body "$MODEL" > "$WORK/quantify_req.json"
STATUS=$(curl -s -o "$WORK/quantify_http.json" -w "%{http_code}" \
  -X POST --data-binary @"$WORK/quantify_req.json" "$BASE/v1/quantify")
[ "$STATUS" = "200" ] || fail "POST /v1/quantify returned $STATUS"
"$BIN" quantify "$MODEL" --json > "$WORK/quantify_cli.json" \
  || fail "offline quantify failed"
diff "$WORK/quantify_http.json" "$WORK/quantify_cli.json" \
  || fail "quantify: HTTP body differs from the CLI --json output"

# --- optimize: HTTP body == `safeopt run --json --seed 7` ------------------
request_body "$MODEL" seed 7 > "$WORK/optimize_req.json"
STATUS=$(curl -s -o "$WORK/optimize_http.json" -w "%{http_code}" \
  -X POST --data-binary @"$WORK/optimize_req.json" "$BASE/v1/optimize")
[ "$STATUS" = "200" ] || fail "POST /v1/optimize returned $STATUS"
"$BIN" run "$MODEL" --json --seed 7 > "$WORK/optimize_cli.json" \
  || fail "offline run failed"
diff "$WORK/optimize_http.json" "$WORK/optimize_cli.json" \
  || fail "optimize: HTTP body differs from the CLI --json output"

# --- validate: HTTP body == `safeopt validate --json` ----------------------
request_body "$MODEL" > "$WORK/validate_req.json"
STATUS=$(curl -s -o "$WORK/validate_http.json" -w "%{http_code}" \
  -X POST --data-binary @"$WORK/validate_req.json" "$BASE/v1/validate")
[ "$STATUS" = "200" ] || fail "POST /v1/validate returned $STATUS"
"$BIN" validate "$MODEL" --json > "$WORK/validate_cli.json" \
  || fail "offline validate failed"
diff "$WORK/validate_http.json" "$WORK/validate_cli.json" \
  || fail "validate: HTTP body differs from the CLI --json output"

# --- deadline-exceeded: 1k corpus under a 1 ms deadline → 504 --------------
request_body "$CORPUS" deadline_ms 1 > "$WORK/deadline_req.json"
STATUS=$(curl -s -o "$WORK/deadline_http.json" -w "%{http_code}" \
  -X POST --data-binary @"$WORK/deadline_req.json" "$BASE/v1/quantify")
[ "$STATUS" = "504" ] || fail "deadline_ms=1 quantify returned $STATUS, wanted 504"
grep -q '"category": "deadline_exceeded"' "$WORK/deadline_http.json" \
  || fail "504 body lacks the deadline_exceeded taxonomy category"

# --- grid_search past its deadline: a partial result or a 504, no crash -----
request_body "$SRC/tests/cli/grid_vote_6_of_16.ft" deadline_ms 1 \
  > "$WORK/grid_deadline_req.json"
STATUS=$(curl -s -o "$WORK/grid_deadline_http.json" -w "%{http_code}" \
  -X POST --data-binary @"$WORK/grid_deadline_req.json" "$BASE/v1/optimize")
case "$STATUS" in
  200) grep -q '"converged": false' "$WORK/grid_deadline_http.json" \
         || fail "deadline_ms=1 grid_search optimize answered 200 without \"converged\": false" ;;
  504) ;;
  *) fail "deadline_ms=1 grid_search optimize returned $STATUS, wanted 200 or 504" ;;
esac

# --- the server is still healthy and reports its build ---------------------
STATUS=$(curl -s -o "$WORK/stats.json" -w "%{http_code}" "$BASE/v1/stats")
[ "$STATUS" = "200" ] || fail "GET /v1/stats returned $STATUS"
grep -q '"build":"safeopt' "$WORK/stats.json" \
  || fail "/v1/stats body lacks the build info string"

echo "serve smoke: quantify/optimize/validate parity, 504 deadline, grid deadline, stats OK"
exit 0
