#!/usr/bin/env python3
"""Validate a PTLR Chrome trace_event JSON file (docs/observability.md).

Checks the schema contract the obs layer promises:
  * top-level object with a "traceEvents" array;
  * every event carries name/ph/pid/tid (and ts unless it is "M" metadata);
  * every task span ("ph" == "X") has dur >= 0 and the full args payload
    (kind, kernel, panel, i, j, flops, bytes, rank_in, rank_out);
  * timestamps are monotone non-decreasing within each (pid, tid) lane;
  * flops are non-negative and kind stays within the Table I range;
  * comm instant-events (cat "comm", pid 1) carry a known event name —
    "send" for a logical mailbox deposit, "net_send"/"net_recv"/
    "net_retransmit" for wire frames of the socket mesh (src/net) — plus
    valid from/to ranks in args.i/args.j and non-negative payload bytes;
  * resilience instant-events (cat "resilience", the fault/retry/recovery
    markers of docs/robustness.md) live in pid 2 and carry a known event
    name in both the display name and args.event.

Usage:
  check_trace.py TRACE.json [--expect-tasks N] [--require-metadata]
                 [--min-resilience N] [--min-comm N] [--min-rejoin N]
                 [--min-task-bytes N]

Exits 0 when the trace is valid, 1 with a diagnostic otherwise — CI runs it
against a traced example (the trace-smoke job).
"""
import argparse
import json
import sys

TASK_ARG_KEYS = (
    "kind", "kernel", "panel", "i", "j", "flops", "bytes",
    "rank_in", "rank_out",
)
NUM_KERNELS = 10  # Table I classes; -1 marks a span with no kernel class

# Canonical recovery event names (obs/counters.hpp, ResilienceEvent).
RESILIENCE_EVENTS = frozenset((
    "fault_exception", "fault_alloc", "fault_poison",
    "msg_drop", "msg_dup",
    "retry", "task_recovered", "msg_recovered",
    "shift_restart", "dense_fallback", "watchdog_fire",
    "ckpt_write", "ckpt_load", "rank_restart",
))
RESILIENCE_PID = 2

# Canonical comm event names: logical mailbox deposits plus the wire-frame
# events the socket peer mesh records (obs::record_net). "net_rejoin" marks
# a successful rank-death rejoin handshake on the link.
COMM_EVENTS = frozenset((
    "send", "net_send", "net_recv", "net_retransmit", "net_rejoin",
))
COMM_PID = 1


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace_event JSON file")
    ap.add_argument("--expect-tasks", type=int, default=None,
                    help="exact number of task spans the trace must hold")
    ap.add_argument("--require-metadata", action="store_true",
                    help="require the run_metadata instant event")
    ap.add_argument("--min-resilience", type=int, default=None,
                    help="minimum number of resilience instant events")
    ap.add_argument("--min-comm", type=int, default=None,
                    help="minimum number of comm instant events")
    ap.add_argument("--min-rejoin", type=int, default=None,
                    help="minimum number of net_rejoin comm events")
    ap.add_argument("--min-task-bytes", type=int, default=None,
                    help="minimum sum of args.bytes over task spans (real "
                         "output-tile sizes, not placeholders)")
    ap.add_argument("--allow-no-tasks", action="store_true",
                    help="accept a trace with zero task spans (a respawned "
                         "rank that resumed past its last owned task "
                         "records only recovery/comm events)")
    args = ap.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args.trace}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents is not an array")

    tasks = comms = resil = rejoins = 0
    task_bytes = 0
    saw_metadata = False
    last_ts = {}
    for idx, ev in enumerate(events):
        where = f"event #{idx}"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                fail(f"{where}: missing {key!r}")
        ph = ev["ph"]
        if ph == "M":
            continue
        if "ts" not in ev:
            fail(f"{where}: missing 'ts'")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{where}: bad ts {ts!r}")
        if ev["name"] == "run_metadata":
            saw_metadata = True
            continue
        lane = (ev["pid"], ev["tid"])
        if lane in last_ts and ts < last_ts[lane]:
            fail(f"{where}: ts {ts} goes backwards in lane {lane}")
        last_ts[lane] = ts
        if ph == "i":
            if ev.get("cat") == "resilience":
                if ev["pid"] != RESILIENCE_PID:
                    fail(f"{where}: resilience event outside pid "
                         f"{RESILIENCE_PID}")
                if ev["name"] not in RESILIENCE_EVENTS:
                    fail(f"{where}: unknown resilience event "
                         f"{ev['name']!r}")
                res_args = ev.get("args")
                if not isinstance(res_args, dict) or "event" not in res_args:
                    fail(f"{where}: resilience event without args.event")
                if res_args["event"] != ev["name"]:
                    fail(f"{where}: args.event {res_args['event']!r} "
                         f"disagrees with name {ev['name']!r}")
                resil += 1
            else:
                if ev["pid"] != COMM_PID:
                    fail(f"{where}: comm event outside pid {COMM_PID}")
                if ev["name"] not in COMM_EVENTS:
                    fail(f"{where}: unknown comm event {ev['name']!r}")
                comm_args = ev.get("args")
                if not isinstance(comm_args, dict):
                    fail(f"{where}: comm event without args")
                for key in ("i", "j", "bytes"):
                    if key not in comm_args:
                        fail(f"{where}: comm args missing {key!r}")
                if comm_args["i"] < 0 or comm_args["j"] < 0:
                    fail(f"{where}: comm event with invalid from/to ranks "
                         f"({comm_args['i']}, {comm_args['j']})")
                if comm_args["bytes"] < 0:
                    fail(f"{where}: comm event with negative bytes")
                comms += 1
                if ev["name"] == "net_rejoin":
                    rejoins += 1
            continue
        if ph != "X":
            fail(f"{where}: unexpected phase {ph!r}")
        tasks += 1
        if ev.get("dur", -1) < 0:
            fail(f"{where}: task span without non-negative dur")
        trace_args = ev.get("args")
        if not isinstance(trace_args, dict):
            fail(f"{where}: task span without args")
        for key in TASK_ARG_KEYS:
            if key not in trace_args:
                fail(f"{where}: args missing {key!r}")
        if not -1 <= trace_args["kind"] < NUM_KERNELS:
            fail(f"{where}: kind {trace_args['kind']} out of range")
        if trace_args["flops"] < 0:
            fail(f"{where}: negative flops")
        if trace_args["bytes"] < 0:
            fail(f"{where}: negative bytes")
        task_bytes += trace_args["bytes"]

    if args.require_metadata and not saw_metadata:
        fail("run_metadata event missing")
    if args.expect_tasks is not None and tasks != args.expect_tasks:
        fail(f"expected {args.expect_tasks} task spans, found {tasks}")
    if args.min_resilience is not None and resil < args.min_resilience:
        fail(f"expected at least {args.min_resilience} resilience events, "
             f"found {resil}")
    if args.min_comm is not None and comms < args.min_comm:
        fail(f"expected at least {args.min_comm} comm events, found {comms}")
    if args.min_rejoin is not None and rejoins < args.min_rejoin:
        fail(f"expected at least {args.min_rejoin} net_rejoin events, "
             f"found {rejoins}")
    if args.min_task_bytes is not None and task_bytes < args.min_task_bytes:
        fail(f"expected at least {args.min_task_bytes} total task output "
             f"bytes, found {task_bytes}")
    if tasks == 0 and not args.allow_no_tasks:
        fail("trace holds no task spans")

    print(f"check_trace: OK: {tasks} task spans ({task_bytes} output B), "
          f"{comms} comm events, "
          f"{resil} resilience events, {len(last_ts)} lanes"
          + (", run metadata present" if saw_metadata else ""))


if __name__ == "__main__":
    main()
