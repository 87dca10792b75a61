#!/usr/bin/env python3
"""CI perf-trajectory gate for bench/fleet_scale.

Compares a freshly generated BENCH_fleet_scale.json against the committed
copy. Both files hold a list of records,

  {block, config, repeats, wall_ms {median, min, max}, events,
   events_per_sec, counters {...}, behavior {...}},

identified by (block, config), and a list of assertions comparing record
fields. Every committed record must have a fresh match, and the check
fails when its median wall clock grew more than MAX_RATIO times or its
events_per_sec fell below 1/MAX_RATIO of the committed value (the floor
catches "each event got slower" even when a run also processes fewer
events). The threshold is deliberately tolerant (shared CI runners are
noisy); it exists to catch "something went quadratic again", not
single-digit-percent drift.

Event counts, counters and behavior are deterministic per scenario and
seed, so a change there is a behavior change, not noise. It is printed as
a note, since the golden and determinism tests pin behavior. The claims
the bench exists to keep are its assertions: the check fails on any fresh
assertion that does not hold and on any committed assertion the fresh file
no longer makes.

Usage: check_perf_trajectory.py FRESH.json COMMITTED.json

Exit codes: 0 ok, 1 regression, missing record or failed assertion,
2 bad input.
"""

import json
import operator
import sys

SCHEMA_VERSION = 10
MAX_RATIO = 3.0
OPS = {"<": operator.lt, ">": operator.gt}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print(f"check_perf_trajectory: cannot read {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if doc.get("schema_version") != SCHEMA_VERSION:
        print(f"check_perf_trajectory: {path} has schema_version "
              f"{doc.get('schema_version')}, expected {SCHEMA_VERSION}",
              file=sys.stderr)
        sys.exit(2)
    return doc


def key(ref):
    return ref["block"], json.dumps(ref["config"], sort_keys=True)


def label(ref):
    config = " ".join(f"{k}={v}" for k, v in sorted(ref["config"].items()))
    return f"{ref['block']} {config}"


def operand(side, records):
    """A literal number, or a {block, config, value} reference to a
    record field named by its dotted path."""
    if not isinstance(side, dict):
        return side
    value = records[key(side)]
    for part in side["value"].split("."):
        value = value[part]
    return value


def shown(side, value):
    if not isinstance(side, dict):
        return str(value)
    return f"[{label(side)}] {side['value']} {value}"


def check_record(base, fresh):
    """Gates one record; returns True on failure."""
    ratio = fresh["wall_ms"]["median"] / max(base["wall_ms"]["median"], 1e-9)
    floor = base["events_per_sec"] / MAX_RATIO
    failed = ratio > MAX_RATIO or fresh["events_per_sec"] < floor
    print(f"  {label(base)}\n"
          f"      wall {base['wall_ms']['median']:.1f} -> "
          f"{fresh['wall_ms']['median']:.1f} ms ({ratio:.2f}x), "
          f"events/sec {base['events_per_sec']:.0f} -> "
          f"{fresh['events_per_sec']:.0f}   "
          f"{'REGRESSION' if failed else 'ok'}")
    drift = [("events", base["events"], fresh["events"])]
    for section in ("counters", "behavior"):
        for name in sorted(set(base[section]) | set(fresh[section])):
            drift.append((f"{section}.{name}", base[section].get(name),
                          fresh[section].get(name)))
    for name, old, new in drift:
        if old != new:
            print(f"      note: {name} changed {old} -> {new} "
                  f"(behavior change)")
    return failed


def main(argv):
    if len(argv) != 2:
        print("usage: check_perf_trajectory.py FRESH.json COMMITTED.json",
              file=sys.stderr)
        return 2
    fresh_doc = load(argv[0])
    committed_doc = load(argv[1])
    fresh = {key(r): r for r in fresh_doc["records"]}
    committed = {key(r): r for r in committed_doc["records"]}

    failed = False
    print(f"perf trajectory (gate: {MAX_RATIO:.1f}x wall, "
          f"1/{MAX_RATIO:.1f} events/sec):")
    for k, base in committed.items():
        if k not in fresh:
            print(f"  {label(base)}\n      MISSING from fresh results")
            failed = True
        elif check_record(base, fresh[k]):
            failed = True
    for k, new in fresh.items():
        if k not in committed:
            print(f"  {label(new)}\n      new record, not gated")

    print("assertions:")
    for a in committed_doc["assertions"]:
        if a not in fresh_doc["assertions"]:
            print(f"  DROPPED from fresh results: {json.dumps(a)}")
            failed = True
    for a in fresh_doc["assertions"]:
        try:
            left = operand(a["left"], fresh)
            right = operand(a["right"], fresh)
            holds = OPS[a["op"]](left, right)
        except (KeyError, TypeError) as err:
            print(f"  UNRESOLVED ({err!r}): {json.dumps(a)}")
            failed = True
            continue
        print(f"  {shown(a['left'], left)} {a['op']} "
              f"{shown(a['right'], right)}   {'ok' if holds else 'FAILED'}")
        failed = failed or not holds
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
