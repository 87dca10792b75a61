#!/usr/bin/env python3
"""CI perf-trajectory gate for bench/fleet_scale.

Compares a freshly generated BENCH_fleet_scale.json against the committed
copy and fails when any run at the gated tenant count regressed by more
than --max-ratio in wall-clock, or when its events_per_sec throughput fell
below 1/--max-ratio of the committed value (the floor catches "each event
got slower" even when a run also processes fewer events). The threshold is
deliberately tolerant (shared CI runners are noisy); it exists to catch
"something went quadratic again", not single-digit-percent drift. Event
counts are deterministic per (scenario, seed), so a changed event count is
reported too — that is a behavior change, not noise, but it only warns
here because the golden tests already pin behavior.

Cluster sweeps are gated per configuration: schema_version 4 carries a
"clusters" list (e.g. the 10k-tenant/4-host storm and the 100k-tenant/
64-host storm), schema_version 3 a single "cluster" object — both shapes
are accepted on either side. Every committed configuration that has a
matching fresh (hosts, tenants) block is gated per policy on wall-clock
and the events_per_sec floor; a fresh file with no cluster blocks at all
fails loudly, while a shape-mismatched local run only warns. Likewise for
the "autoscale" block (fleet_scale --autoscale): the autoscaled storm's
wall-clock is gated at the committed (hosts, max_hosts, tenants)
configuration, and changed event counts / admission totals are reported
as behavior changes.

schema_version 6 adds a "chaos" block (fleet_scale --chaos): the
crash-recovery storm — a mid-ramp host crash on a RAM-tight autoscaled
fleet — with its recovery SLOs. Gated config-matched at the committed
(hosts, max_hosts, tenants) on wall-clock ratio and the events_per_sec
floor; changed event counts or recovery outcomes (victims, re-admission
fraction, time-to-re-place p99) are reported as behavior changes, since
the chaos suite's determinism tests pin them separately.

schema_version 7 adds a "federation" list (fleet_scale --cells): the
federation storm routed across K cluster cells, one entry per
(cells, hosts_per_cell, tenants) shape with per-routing-policy runs.
Gated config-matched per routing policy on wall-clock ratio and the
events_per_sec floor; changed event counts or inter-cell spill totals
are reported as behavior changes (the federation determinism tests pin
the reports themselves).

schema_version 8 adds a "programs" block (fleet_scale --programs): the
program storm, where most tenants interpret a built-in syscall program
over the HostKernel instead of drawing statistical phases. Gated
config-matched at the committed (hosts, tenants) on wall-clock ratio
and the events_per_sec floor; changed event counts, op totals, worst
per-class op p99, or a flipped SLO verdict are reported as behavior
changes (the program determinism tests pin the reports).

schema_version 9 adds a "degraded" block (fleet_scale --degraded): the
committed degrade storm (disk degrade + KSM unmerge pressure + partial
partition + mid-pressure crash over interpreted programs) with per-op
retry/backoff on, plus a no-retry control over the same fault schedule.
Gated config-matched at the committed (hosts, tenants) on wall-clock
ratio and the events_per_sec floor, and hard-gated on the graceful-
degradation differential itself: the retry arm must keep strictly fewer
op give-ups and strictly fewer permanently lost tenants than the
control, or the gate fails — that differential is the block's reason to
exist, not a tolerance band. Changed counters otherwise warn as behavior
changes (the degraded determinism tests pin the reports).

Usage:
  check_perf_trajectory.py FRESH.json COMMITTED.json \
      [--tenants 1000] [--max-ratio 3.0]

Exit codes: 0 ok, 1 regression or missing runs, 2 bad input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"check_perf_trajectory: cannot read {path}: {err}",
              file=sys.stderr)
        sys.exit(2)


def runs_at(doc, tenants):
    return {
        r["scenario"]: r
        for r in doc.get("runs", [])
        if r.get("tenants") == tenants
    }


def throughput_floor_failed(label, base_run, fresh_run, max_ratio):
    """events_per_sec floor: fresh must stay above committed / max_ratio.
    Returns True on failure; silently passes when either side lacks the
    field (schema_version < 4 inputs)."""
    base_eps = base_run.get("events_per_sec")
    fresh_eps = fresh_run.get("events_per_sec")
    if not base_eps or fresh_eps is None:
        return False
    floor = base_eps / max_ratio
    if fresh_eps >= floor:
        return False
    print(f"  {label:<18} THROUGHPUT REGRESSION: events/sec "
          f"{base_eps:.0f} -> {fresh_eps:.0f} "
          f"(floor {floor:.0f} at {max_ratio:.1f}x)")
    return True


def cluster_blocks(doc):
    """Cluster sweep blocks from either schema: v4 "clusters" list or the
    v3 single "cluster" object."""
    blocks = doc.get("clusters")
    if blocks is None:
        single = doc.get("cluster")
        blocks = [single] if single is not None else []
    return blocks


def check_clusters(fresh_doc, committed_doc, max_ratio):
    """Gate every committed cluster sweep config; returns True on failure."""
    base_blocks = cluster_blocks(committed_doc)
    if not base_blocks:
        return False  # nothing committed to gate against
    fresh_blocks = cluster_blocks(fresh_doc)
    if not fresh_blocks:
        print("  cluster sweeps    MISSING from fresh results")
        return True
    fresh_by_config = {(b.get("hosts"), b.get("tenants")): b
                       for b in fresh_blocks}
    failed = False
    for base in base_blocks:
        config = (base.get("hosts"), base.get("tenants"))
        fresh = fresh_by_config.get(config)
        if fresh is None:
            # A different-shaped local run (e.g. --tenants 500 --hosts 2) is
            # not comparable; warn without failing. CI pins the matching
            # configurations, so there this branch never triggers.
            print(f"  cluster sweep     no fresh block for committed "
                  f"hosts={config[0]} tenants={config[1]} -- skipped, "
                  f"not gated")
            continue
        print(f"cluster sweep at {config[1]} tenants across "
              f"{config[0]} hosts:")
        fresh_runs = {r["policy"]: r for r in fresh.get("runs", [])}
        for run in base.get("runs", []):
            policy = run["policy"]
            fresh_run = fresh_runs.get(policy)
            if fresh_run is None:
                print(f"  {policy:<18} MISSING from fresh results")
                failed = True
                continue
            ratio = (fresh_run["wall_ms"] / run["wall_ms"]
                     if run["wall_ms"] > 0 else 0.0)
            verdict = "ok" if ratio <= max_ratio else "REGRESSION"
            print(f"  {policy:<18} committed {run['wall_ms']:8.1f} ms   "
                  f"fresh {fresh_run['wall_ms']:8.1f} ms   "
                  f"ratio {ratio:4.2f}x   {verdict}")
            if ratio > max_ratio:
                failed = True
            if throughput_floor_failed(policy, run, fresh_run, max_ratio):
                failed = True
            if fresh_run.get("events") != run.get("events"):
                print(f"  {policy:<18} note: event count changed "
                      f"{run.get('events')} -> {fresh_run.get('events')} "
                      f"(cluster behavior change — single-host goldens do "
                      f"not cover this)")
    return failed


def check_autoscale(fresh_doc, committed_doc, max_ratio):
    """Gate the autoscaled storm run; returns True on failure."""
    base = committed_doc.get("autoscale")
    fresh = fresh_doc.get("autoscale")
    if base is None:
        return False  # nothing committed to gate against
    if fresh is None:
        print("  autoscale run     MISSING from fresh results")
        return True
    config = (base.get("hosts"), base.get("max_hosts"), base.get("tenants"))
    fresh_config = (fresh.get("hosts"), fresh.get("max_hosts"),
                    fresh.get("tenants"))
    if fresh_config != config:
        print(f"  autoscale run     config mismatch: committed "
              f"{config}, fresh {fresh_config} -- skipped, not gated")
        return False
    base_run = base.get("run", {})
    fresh_run = fresh.get("run", {})
    # Schema drift (renamed key, empty run block) on either side must fail
    # loudly, not compute a 0.00x ratio that reads as "ok".
    if fresh_run.get("wall_ms", 0.0) <= 0.0:
        print("  autoscale run     fresh results carry no wall_ms")
        return True
    if base_run.get("wall_ms", 0.0) <= 0.0:
        print("  autoscale run     committed results carry no wall_ms")
        return True
    ratio = fresh_run["wall_ms"] / base_run["wall_ms"]
    verdict = "ok" if ratio <= max_ratio else "REGRESSION"
    print(f"autoscale storm at {config[2]} tenants, "
          f"{config[0]} -> {config[1]} hosts:")
    print(f"  wall              committed {base_run.get('wall_ms', 0.0):8.1f} ms   "
          f"fresh {fresh_run.get('wall_ms', 0.0):8.1f} ms   ratio {ratio:4.2f}x   "
          f"{verdict}")
    for key in ("events", "tenants_admitted", "final_hosts"):
        if fresh_run.get(key) != base_run.get(key):
            print(f"  note: {key} changed {base_run.get(key)} -> "
                  f"{fresh_run.get(key)} (autoscale behavior change)")
    return ratio > max_ratio


def check_chaos(fresh_doc, committed_doc, max_ratio):
    """Gate the crash-recovery chaos run; returns True on failure."""
    base = committed_doc.get("chaos")
    fresh = fresh_doc.get("chaos")
    if base is None:
        return False  # nothing committed to gate against
    if fresh is None:
        print("  chaos run         MISSING from fresh results")
        return True
    config = (base.get("hosts"), base.get("max_hosts"), base.get("tenants"))
    fresh_config = (fresh.get("hosts"), fresh.get("max_hosts"),
                    fresh.get("tenants"))
    if fresh_config != config:
        print(f"  chaos run         config mismatch: committed "
              f"{config}, fresh {fresh_config} -- skipped, not gated")
        return False
    base_run = base.get("run", {})
    fresh_run = fresh.get("run", {})
    if fresh_run.get("wall_ms", 0.0) <= 0.0:
        print("  chaos run         fresh results carry no wall_ms")
        return True
    if base_run.get("wall_ms", 0.0) <= 0.0:
        print("  chaos run         committed results carry no wall_ms")
        return True
    ratio = fresh_run["wall_ms"] / base_run["wall_ms"]
    verdict = "ok" if ratio <= max_ratio else "REGRESSION"
    print(f"chaos crash-recovery at {config[2]} tenants, "
          f"{config[0]} -> {config[1]} hosts:")
    print(f"  wall              committed {base_run.get('wall_ms', 0.0):8.1f} ms   "
          f"fresh {fresh_run.get('wall_ms', 0.0):8.1f} ms   ratio {ratio:4.2f}x   "
          f"{verdict}")
    failed = ratio > max_ratio
    if throughput_floor_failed("chaos", base_run, fresh_run, max_ratio):
        failed = True
    if fresh_run.get("events") != base_run.get("events"):
        print(f"  note: events changed {base_run.get('events')} -> "
              f"{fresh_run.get('events')} (chaos behavior change — the "
              f"chaos determinism tests pin the report, not this gate)")
    base_rec = base.get("recovery", {})
    fresh_rec = fresh.get("recovery", {})
    for key in ("victims", "readmitted", "lost", "readmission_fraction",
                "replace_p99_ms", "scale_outs"):
        if fresh_rec.get(key) != base_rec.get(key):
            print(f"  note: {key} changed {base_rec.get(key)} -> "
                  f"{fresh_rec.get(key)} (recovery behavior change)")
    return failed


def check_programs(fresh_doc, committed_doc, max_ratio):
    """Gate the syscall-program storm run; returns True on failure."""
    base = committed_doc.get("programs")
    fresh = fresh_doc.get("programs")
    if base is None:
        return False  # nothing committed to gate against
    if fresh is None:
        print("  programs run      MISSING from fresh results")
        return True
    config = (base.get("hosts"), base.get("tenants"))
    fresh_config = (fresh.get("hosts"), fresh.get("tenants"))
    if fresh_config != config:
        print(f"  programs run      config mismatch: committed "
              f"{config}, fresh {fresh_config} -- skipped, not gated")
        return False
    base_run = base.get("run", {})
    fresh_run = fresh.get("run", {})
    if fresh_run.get("wall_ms", 0.0) <= 0.0:
        print("  programs run      fresh results carry no wall_ms")
        return True
    if base_run.get("wall_ms", 0.0) <= 0.0:
        print("  programs run      committed results carry no wall_ms")
        return True
    ratio = fresh_run["wall_ms"] / base_run["wall_ms"]
    verdict = "ok" if ratio <= max_ratio else "REGRESSION"
    print(f"program storm at {config[1]} tenants across {config[0]} hosts:")
    print(f"  wall              committed {base_run.get('wall_ms', 0.0):8.1f} ms   "
          f"fresh {fresh_run.get('wall_ms', 0.0):8.1f} ms   ratio {ratio:4.2f}x   "
          f"{verdict}")
    failed = ratio > max_ratio
    if throughput_floor_failed("programs", base_run, fresh_run, max_ratio):
        failed = True
    if fresh_run.get("events") != base_run.get("events"):
        print(f"  note: events changed {base_run.get('events')} -> "
              f"{fresh_run.get('events')} (program behavior change — the "
              f"program determinism tests pin the report, not this gate)")
    base_ops = base.get("ops", {})
    fresh_ops = fresh.get("ops", {})
    for key in ("program_tenants", "total_ops", "op_p99_worst_ms",
                "slo_pass"):
        if fresh_ops.get(key) != base_ops.get(key):
            print(f"  note: {key} changed {base_ops.get(key)} -> "
                  f"{fresh_ops.get(key)} (program behavior change)")
    return failed


def check_degraded(fresh_doc, committed_doc, max_ratio):
    """Gate the degrade storm + retry differential; returns True on
    failure."""
    base = committed_doc.get("degraded")
    fresh = fresh_doc.get("degraded")
    if base is None:
        return False  # nothing committed to gate against
    if fresh is None:
        print("  degraded run      MISSING from fresh results")
        return True
    config = (base.get("hosts"), base.get("tenants"))
    fresh_config = (fresh.get("hosts"), fresh.get("tenants"))
    if fresh_config != config:
        print(f"  degraded run      config mismatch: committed "
              f"{config}, fresh {fresh_config} -- skipped, not gated")
        return False
    base_run = base.get("run", {})
    fresh_run = fresh.get("run", {})
    if fresh_run.get("wall_ms", 0.0) <= 0.0:
        print("  degraded run      fresh results carry no wall_ms")
        return True
    if base_run.get("wall_ms", 0.0) <= 0.0:
        print("  degraded run      committed results carry no wall_ms")
        return True
    ratio = fresh_run["wall_ms"] / base_run["wall_ms"]
    verdict = "ok" if ratio <= max_ratio else "REGRESSION"
    print(f"degrade storm at {config[1]} tenants across {config[0]} hosts:")
    print(f"  wall              committed {base_run.get('wall_ms', 0.0):8.1f} ms   "
          f"fresh {fresh_run.get('wall_ms', 0.0):8.1f} ms   ratio {ratio:4.2f}x   "
          f"{verdict}")
    failed = ratio > max_ratio
    if throughput_floor_failed("degraded", base_run, fresh_run, max_ratio):
        failed = True
    if fresh_run.get("events") != base_run.get("events"):
        print(f"  note: events changed {base_run.get('events')} -> "
              f"{fresh_run.get('events')} (degraded behavior change — the "
              f"degraded determinism tests pin the report, not this gate)")
    # The committed graceful-degradation claim, gated hard: retries must
    # actually fire, and the retry arm must beat the no-retry control on
    # both give-ups and permanently lost tenants.
    retry = fresh.get("retry", {})
    control = fresh.get("no_retry_control", {})
    if retry.get("op_retries", 0) <= 0:
        print("  degraded run      DIFFERENTIAL BROKEN: retry arm issued "
              "no retries")
        failed = True
    if not retry.get("op_give_ups", 0) < control.get("op_give_ups", 0):
        print(f"  degraded run      DIFFERENTIAL BROKEN: give-ups "
              f"{retry.get('op_give_ups')} (retry) vs "
              f"{control.get('op_give_ups')} (no-retry control)")
        failed = True
    if not retry.get("crash_lost", 0) < control.get("crash_lost", 0):
        print(f"  degraded run      DIFFERENTIAL BROKEN: lost tenants "
              f"{retry.get('crash_lost')} (retry) vs "
              f"{control.get('crash_lost')} (no-retry control)")
        failed = True
    base_faults = base.get("faults", {})
    fresh_faults = fresh.get("faults", {})
    for key in ("degrade_faults", "affected", "added_p99_worst_ms"):
        if fresh_faults.get(key) != base_faults.get(key):
            print(f"  note: {key} changed {base_faults.get(key)} -> "
                  f"{fresh_faults.get(key)} (degraded behavior change)")
    for arm, arm_base, arm_fresh in (("retry", base.get("retry", {}), retry),
                                     ("no_retry_control",
                                      base.get("no_retry_control", {}),
                                      control)):
        for key in ("op_give_ups", "crash_lost"):
            if arm_fresh.get(key) != arm_base.get(key):
                print(f"  note: {arm}.{key} changed {arm_base.get(key)} -> "
                      f"{arm_fresh.get(key)} (degraded behavior change)")
    return failed


def check_federation(fresh_doc, committed_doc, max_ratio):
    """Gate every committed federation sweep shape; returns True on
    failure."""
    base_blocks = committed_doc.get("federation", [])
    if not base_blocks:
        return False  # nothing committed to gate against
    fresh_blocks = fresh_doc.get("federation", [])
    if not fresh_blocks:
        print("  federation sweeps MISSING from fresh results")
        return True
    fresh_by_config = {(b.get("cells"), b.get("hosts_per_cell"),
                        b.get("tenants")): b
                       for b in fresh_blocks}
    failed = False
    for base in base_blocks:
        config = (base.get("cells"), base.get("hosts_per_cell"),
                  base.get("tenants"))
        fresh = fresh_by_config.get(config)
        if fresh is None:
            print(f"  federation sweep  no fresh block for committed "
                  f"cells={config[0]} hosts_per_cell={config[1]} "
                  f"tenants={config[2]} -- skipped, not gated")
            continue
        print(f"federation sweep at {config[2]} tenants across "
              f"{config[0]} cells x {config[1]} hosts:")
        fresh_runs = {r["routing"]: r for r in fresh.get("runs", [])}
        for run in base.get("runs", []):
            routing = run["routing"]
            fresh_run = fresh_runs.get(routing)
            if fresh_run is None:
                print(f"  {routing:<18} MISSING from fresh results")
                failed = True
                continue
            ratio = (fresh_run["wall_ms"] / run["wall_ms"]
                     if run["wall_ms"] > 0 else 0.0)
            verdict = "ok" if ratio <= max_ratio else "REGRESSION"
            print(f"  {routing:<18} committed {run['wall_ms']:8.1f} ms   "
                  f"fresh {fresh_run['wall_ms']:8.1f} ms   "
                  f"ratio {ratio:4.2f}x   {verdict}")
            if ratio > max_ratio:
                failed = True
            if throughput_floor_failed(routing, run, fresh_run, max_ratio):
                failed = True
            for key in ("events", "spills", "admitted"):
                if fresh_run.get(key) != run.get(key):
                    print(f"  {routing:<18} note: {key} changed "
                          f"{run.get(key)} -> {fresh_run.get(key)} "
                          f"(federation behavior change — the federation "
                          f"determinism tests pin the reports)")
    return failed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh", help="JSON from the CI run")
    parser.add_argument("committed", help="checked-in trajectory JSON")
    parser.add_argument("--tenants", type=int, default=1000,
                        help="tenant count to gate on (default 1000)")
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when fresh/committed wall_ms exceeds this")
    args = parser.parse_args()

    fresh_doc = load(args.fresh)
    committed_doc = load(args.committed)
    fresh = runs_at(fresh_doc, args.tenants)
    committed = runs_at(committed_doc, args.tenants)
    if not committed:
        print(f"check_perf_trajectory: committed file has no runs at "
              f"{args.tenants} tenants", file=sys.stderr)
        return 2

    failed = False
    print(f"perf trajectory at {args.tenants} tenants "
          f"(gate: {args.max_ratio:.1f}x):")
    for scenario, base in sorted(committed.items()):
        run = fresh.get(scenario)
        if run is None:
            print(f"  {scenario:<18} MISSING from fresh results")
            failed = True
            continue
        ratio = run["wall_ms"] / base["wall_ms"] if base["wall_ms"] > 0 else 0.0
        verdict = "ok" if ratio <= args.max_ratio else "REGRESSION"
        print(f"  {scenario:<18} committed {base['wall_ms']:8.1f} ms   "
              f"fresh {run['wall_ms']:8.1f} ms   ratio {ratio:4.2f}x   "
              f"{verdict}")
        if ratio > args.max_ratio:
            failed = True
        if throughput_floor_failed(scenario, base, run, args.max_ratio):
            failed = True
        if run.get("events") != base.get("events"):
            print(f"  {scenario:<18} note: event count changed "
                  f"{base.get('events')} -> {run.get('events')} "
                  f"(behavior change, pinned elsewhere)")
    if check_clusters(fresh_doc, committed_doc, args.max_ratio):
        failed = True
    if check_autoscale(fresh_doc, committed_doc, args.max_ratio):
        failed = True
    if check_chaos(fresh_doc, committed_doc, args.max_ratio):
        failed = True
    if check_programs(fresh_doc, committed_doc, args.max_ratio):
        failed = True
    if check_degraded(fresh_doc, committed_doc, args.max_ratio):
        failed = True
    if check_federation(fresh_doc, committed_doc, args.max_ratio):
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
