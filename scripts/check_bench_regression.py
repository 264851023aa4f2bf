#!/usr/bin/env python3
"""Gate bench records against their committed BENCH baselines.

Usage:
    check_bench_regression.py MEASURED.json BASELINE.json \
        [MEASURED2.json BASELINE2.json ...] [--min-ratio R]

Positional arguments are (measured, baseline) pairs: each MEASURED.json
is a fresh `--json-out` record from one of the bench executables, each
BASELINE.json a committed BENCH_*.json whose `baseline` object (or the
record itself) holds the reference numbers — the slower, pre-refactor
side, deliberately: CI runner hardware differs from the machine that
produced the baseline, and gating against the pre numbers leaves that
headroom while still catching real regressions.

Three record kinds are recognised by shape:

  hot-path records (hot_path_bench): the end-to-end run tier — the
  number every campaign cycle actually pays —

      system_run_instr_per_sec      (the --scheme machine, default SNUG)
      system_run_l2p_instr_per_sec  (the L2P machine)

  fails when either falls below min-ratio x baseline (default 0.9,
  i.e. a >10% regression).

  warm-up records (warmup_bench, detected by `speedup_bank_vs_cold`):
  gated on absolute tiers rather than hardware-relative ratios —

      speedup_bank_vs_cold          >= 1.6   (the ISSUE 6 acceptance bar)
      ipc_delta_functional_vs_cold  <= 0.25  (equivalence-test band)
      ipc_delta_bank_vs_functional  == 0.0   (restore is bit-identical)

  service records (service_bench, detected by `queries_per_sec_hit`):
  gated on

      hit_correct                   == 1     (cache-hit answers are
                                              bit-identical to cold)
      miss_correct                  == 1     (cold answers match
                                              isolated re-simulation)
      ring_correct                  == 1     (in-process ring answers are
                                              bit-identical to cold)
      queries_per_sec_hit           >= 5.0   (the 100%-hit path — file
                                              round-trip + cache probe —
                                              must stay service-shaped,
                                              not simulation-shaped; the
                                              recorded BENCH_service.json
                                              measures ~2500 q/s)
      queries_per_sec_ring          >= 1000  (the in-process ring tier
                                              must stay memory-shaped;
                                              the recorded
                                              BENCH_service.json measures
                                              ~100k q/s — the floor only
                                              catches a collapse back to
                                              file-wire latency)
      ring_hit_p50_us               <= 750   (a warm ring hit must never
                                              pay a poll interval or a
                                              directory scan; recorded
                                              p50 is single-digit µs,
                                              the ceiling is a loose
                                              CI-hardware guard)

Bad inputs (missing, truncated, or corrupt JSON; records missing their
gate keys) fail with ONE line on stderr naming the offending file — a CI
log should never need spelunking to learn which artefact broke.

`--self-check` runs the built-in pytest-style test suite (gates and
error paths, against generated temp files) and exits 0/1; CI runs it
before trusting the gate.

Exit codes: 0 pass, 1 regression, 2 bad input.
"""

import argparse
import json
import os
import sys
import tempfile

HOTPATH_KEYS = ("system_run_instr_per_sec", "system_run_l2p_instr_per_sec")

WARMUP_MIN_BANK_SPEEDUP = 1.6
WARMUP_MAX_FUNCTIONAL_IPC_DELTA = 0.25

SERVICE_MIN_HIT_QPS = 5.0
SERVICE_MIN_RING_QPS = 1000.0
SERVICE_MAX_RING_P50_US = 750.0


class InputError(Exception):
    """A bad input file; str(self) is the one-line, file-named message."""


def load(path):
    """Parses one record, classifying every failure by file name."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise InputError(f"{path}: missing (bench did not write it?)")
    except OSError as err:
        raise InputError(f"{path}: unreadable ({err.strerror})")
    if not raw.strip():
        raise InputError(f"{path}: empty/truncated (0 JSON bytes)")
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as err:
        kind = ("truncated" if err.pos >= len(raw.strip()) - 1
                else "corrupt")
        raise InputError(
            f"{path}: {kind} JSON ({err.msg} at line {err.lineno} "
            f"column {err.colno})")
    if not isinstance(record, dict):
        raise InputError(
            f"{path}: corrupt record (top level is "
            f"{type(record).__name__}, expected an object)")
    return record


def require_number(record, path, key, positive=False):
    got = record.get(key)
    if not isinstance(got, (int, float)) or isinstance(got, bool) or (
            positive and got <= 0):
        have = "missing" if key not in record else f"= {record[key]!r}"
        raise InputError(
            f"{path}: corrupt record (gate key '{key}' {have})")
    return got


def gate_hotpath(measured, baseline, min_ratio, measured_path,
                 baseline_path):
    failures = []
    for key in HOTPATH_KEYS:
        ref = require_number(baseline, baseline_path, key, positive=True)
        got = require_number(measured, measured_path, key, positive=True)
        ratio = got / ref
        status = "OK " if ratio >= min_ratio else "REGRESSION"
        print(f"{status} {key}: measured {got:,.0f} / baseline {ref:,.0f} "
              f"= {ratio:.3f} (floor {min_ratio:.2f})")
        if ratio < min_ratio:
            failures.append(key)
    return failures


def gate_fixed(measured, checks, measured_path):
    failures = []
    for key, ok, bound in checks:
        got = require_number(measured, measured_path, key)
        status = "OK " if ok(got) else "REGRESSION"
        print(f"{status} {key}: measured {got} (require {bound})")
        if not ok(got):
            failures.append(key)
    return failures


def gate_warmup(measured, measured_path):
    return gate_fixed(measured, (
        ("speedup_bank_vs_cold", lambda v: v >= WARMUP_MIN_BANK_SPEEDUP,
         f">= {WARMUP_MIN_BANK_SPEEDUP}"),
        ("ipc_delta_functional_vs_cold",
         lambda v: v <= WARMUP_MAX_FUNCTIONAL_IPC_DELTA,
         f"<= {WARMUP_MAX_FUNCTIONAL_IPC_DELTA}"),
        ("ipc_delta_bank_vs_functional", lambda v: v == 0.0, "== 0"),
    ), measured_path)


def gate_service(measured, measured_path):
    return gate_fixed(measured, (
        ("hit_correct", lambda v: v == 1, "== 1"),
        ("miss_correct", lambda v: v == 1, "== 1"),
        ("ring_correct", lambda v: v == 1, "== 1"),
        ("queries_per_sec_hit", lambda v: v >= SERVICE_MIN_HIT_QPS,
         f">= {SERVICE_MIN_HIT_QPS}"),
        ("queries_per_sec_ring", lambda v: v >= SERVICE_MIN_RING_QPS,
         f">= {SERVICE_MIN_RING_QPS}"),
        ("ring_hit_p50_us", lambda v: v <= SERVICE_MAX_RING_P50_US,
         f"<= {SERVICE_MAX_RING_P50_US}"),
    ), measured_path)


def run_pairs(files, min_ratio):
    """The gate proper: 0 pass, 1 regression; raises InputError."""
    failures = []
    for i in range(0, len(files), 2):
        measured_path, baseline_path = files[i], files[i + 1]
        measured = load(measured_path)
        baseline_file = load(baseline_path)
        baseline = baseline_file.get("baseline", baseline_file)
        print(f"-- {measured_path} vs {baseline_path}")
        if "speedup_bank_vs_cold" in measured:
            failures += gate_warmup(measured, measured_path)
        elif "queries_per_sec_hit" in measured:
            failures += gate_service(measured, measured_path)
        else:
            failures += gate_hotpath(measured, baseline, min_ratio,
                                     measured_path, baseline_path)
    if failures:
        print(f"check_bench_regression: gate failed on: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# ---- self-check ----------------------------------------------------------
# A pytest-style micro-suite over generated temp files: every gate kind
# passing and regressing, plus every InputError path (missing, empty,
# truncated, corrupt, wrong-shape, gate key absent).  CI runs
# `--self-check` before trusting the gate, so a broken checker fails the
# build instead of waving regressions through.

def _write(dirname, name, text):
    path = os.path.join(dirname, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def _expect(name, condition, detail=""):
    status = "ok" if condition else "FAILED"
    print(f"self-check {name} ... {status}{detail}")
    return condition


def _expect_input_error(name, fragment, *load_args):
    try:
        run_pairs(list(load_args), 0.9)
    except InputError as err:
        msg = str(err)
        return _expect(name, fragment in msg and "\n" not in msg,
                       f" [{msg}]" if fragment not in msg else "")
    return _expect(name, False, " [no InputError raised]")


def self_check():
    hot = json.dumps({k: 1000.0 for k in HOTPATH_KEYS})
    hot_slow = json.dumps({k: 100.0 for k in HOTPATH_KEYS})
    warm = json.dumps({"speedup_bank_vs_cold": 2.0,
                       "ipc_delta_functional_vs_cold": 0.1,
                       "ipc_delta_bank_vs_functional": 0.0})
    service_ok = {"queries_per_sec_hit": 2500.0,
                  "queries_per_sec_ring": 100000.0,
                  "ring_hit_p50_us": 7.0,
                  "hit_correct": 1, "ring_correct": 1, "miss_correct": 1}
    service = json.dumps(service_ok)
    service_bad = json.dumps({**service_ok, "miss_correct": 0})
    service_slow = json.dumps({**service_ok, "queries_per_sec_hit": 2.0})
    service_ring_bad = json.dumps({**service_ok, "ring_correct": 0})
    service_ring_slow = json.dumps(
        {**service_ok, "queries_per_sec_ring": 200.0})
    service_ring_lat = json.dumps(
        {**service_ok, "ring_hit_p50_us": 5000.0})
    ok = True
    with tempfile.TemporaryDirectory(prefix="snug_gate_check") as d:
        hot_m = _write(d, "hot.json", hot)
        hot_b = _write(d, "hot_base.json",
                       json.dumps({"baseline": json.loads(hot)}))
        ok &= _expect("hotpath pass", run_pairs([hot_m, hot_b], 0.9) == 0)
        slow = _write(d, "hot_slow.json", hot_slow)
        ok &= _expect("hotpath regression",
                      run_pairs([slow, hot_b], 0.9) == 1)
        warm_m = _write(d, "warm.json", warm)
        ok &= _expect("warmup pass", run_pairs([warm_m, warm_m], 0.9) == 0)
        svc_m = _write(d, "service.json", service)
        ok &= _expect("service pass", run_pairs([svc_m, svc_m], 0.9) == 0)
        svc_b = _write(d, "service_bad.json", service_bad)
        ok &= _expect("service correctness regression",
                      run_pairs([svc_b, svc_b], 0.9) == 1)
        svc_s = _write(d, "service_slow.json", service_slow)
        ok &= _expect("service throughput regression",
                      run_pairs([svc_s, svc_s], 0.9) == 1)
        svc_rb = _write(d, "service_ring_bad.json", service_ring_bad)
        ok &= _expect("service ring correctness regression",
                      run_pairs([svc_rb, svc_rb], 0.9) == 1)
        svc_rs = _write(d, "service_ring_slow.json", service_ring_slow)
        ok &= _expect("service ring throughput regression",
                      run_pairs([svc_rs, svc_rs], 0.9) == 1)
        svc_rl = _write(d, "service_ring_lat.json", service_ring_lat)
        ok &= _expect("service ring latency regression",
                      run_pairs([svc_rl, svc_rl], 0.9) == 1)
        svc_keyless = _write(
            d, "service_keyless.json",
            json.dumps({"queries_per_sec_hit": 2500.0, "hit_correct": 1}))
        ok &= _expect_input_error("service gate key absent", "gate key",
                                  svc_keyless, svc_m)
        svc_noring = _write(
            d, "service_noring.json",
            json.dumps({k: v for k, v in service_ok.items()
                        if not k.startswith("ring") and
                        k != "queries_per_sec_ring"}))
        ok &= _expect_input_error("service pre-ring record rejected",
                                  "gate key", svc_noring, svc_m)

        missing = os.path.join(d, "never_written.json")
        ok &= _expect_input_error("missing file", "missing", missing,
                                  hot_b)
        empty = _write(d, "empty.json", "")
        ok &= _expect_input_error("empty file", "empty/truncated", empty,
                                  hot_b)
        torn = _write(d, "torn.json", hot[: len(hot) // 2])
        ok &= _expect_input_error("truncated JSON", "JSON", torn, hot_b)
        corrupt = _write(d, "corrupt.json", "{\"a\": nope}")
        ok &= _expect_input_error("corrupt JSON", "corrupt JSON", corrupt,
                                  hot_b)
        listy = _write(d, "list.json", "[1, 2]")
        ok &= _expect_input_error("wrong shape", "top level is list",
                                  listy, hot_b)
        keyless = _write(d, "keyless.json", "{\"unrelated\": 3}")
        ok &= _expect_input_error("gate key absent", "gate key", keyless,
                                  hot_b)
    print("self-check:", "all passed" if ok else "FAILURES", file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*",
                        help="(measured, baseline) JSON file pairs")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.9,
        help="hot-path gate: fail when measured/baseline drops below this "
             "(default 0.9)",
    )
    parser.add_argument(
        "--self-check", action="store_true",
        help="run the built-in test suite against generated inputs and "
             "exit (CI runs this before trusting the gate)")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not args.files or len(args.files) % 2 != 0:
        print("check_bench_regression: arguments must be "
              "(measured, baseline) pairs", file=sys.stderr)
        return 2
    try:
        return run_pairs(args.files, args.min_ratio)
    except InputError as err:
        print(f"check_bench_regression: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
