"""Revive storms: N simultaneous branch forks from one checkpoint.

Section 5.2: "DejaView's combination of unioning and file system
snapshots provides a branchable file system to enable DejaView to create
multiple revived sessions from a single checkpoint."  This bench forks
N in {16, 64} branches from the *same* parent checkpoint and gates the
two economics that make storms viable:

* **fork latency is flat in N** — a fork demand-pages out of the shared
  store and pins (not copies) the source manifests, so the p95 fork
  latency at N=64 must stay within 3x of N=16 (in practice it is
  identical: forks from one checkpoint do the same virtual work);
* **pages are shared, not copied** — immediately after the forks (before
  any branch diverges) at least 60% of the branches' referenced bytes
  must be shared (parent-chain pins and sibling dedup), so N branches
  cost nowhere near N full copies.

Also reports the post-divergence split (branches run mixed scenarios, so
private bytes appear only where a branch actually wrote novel pages) and
the physical-bytes bound: the store must hold at most one logical copy
of the parent plus the branches' private pages.

Writes ``BENCH_revive.json`` in the pytest root for CI artifact upload.
"""

import gc

from benchmarks.conftest import print_table, rank_percentile, update_artifact

MB = 1e6

STORM_SIZES = [16, 64]
SEED = 1
PARENT_UNITS = 16
BRANCH_UNITS = 2

#: Acceptance gates (ISSUE: revive storms).
FORK_P95_RATIO_GATE = 3.0
SHARED_FRACTION_GATE = 0.60


def _measure(branches):
    from repro.workloads.fleet_wl import run_revive_storm

    gc.disable()
    try:
        fleet, report = run_revive_storm(
            branches, seed=SEED, parent_units=PARENT_UNITS,
            branch_units=BRANCH_UNITS)
    finally:
        gc.enable()
    forks = report["fork_us"]
    at_fork = report["split_at_fork"].values()
    shared = sum(s["shared_bytes"] for s in at_fork)
    private = sum(s["private_bytes"] for s in at_fork)
    after = report["split_after_run"].values()
    parent_raw, _parent_comp = fleet.cas.owner_logical_totals("p0")
    private_after = sum(s["private_bytes"] for s in after)
    physical = fleet.cas.total_uncompressed_bytes
    # Per-branch *novel* bytes: digests the branch references that the
    # parent does not (novel pages two siblings share are counted once
    # per sibling, so the sum over branches upper-bounds the distinct
    # novel footprint).
    cas = fleet.cas
    parent_digests = set(cas.owner_refs.get("p0", ()))
    novel_after = sum(
        cas.sizes[digest][0]
        for member in fleet.branches()
        for digest in set(cas.owner_refs.get(member.name, ()))
        - parent_digests)
    row = {
        "branches": branches,
        "seed": SEED,
        "source_checkpoint": report["source_checkpoint"],
        "fork_p50_us": rank_percentile(forks, 0.50),
        "fork_p95_us": rank_percentile(forks, 0.95),
        "fork_max_us": max(forks),
        "shared_bytes_at_fork": shared,
        "private_bytes_at_fork": private,
        "shared_fraction_at_fork": (
            shared / (shared + private) if shared + private else 0.0),
        "private_bytes_after_run": private_after,
        "novel_bytes_after_run": novel_after,
        "parent_logical_bytes": parent_raw,
        "physical_page_bytes": physical,
        "dedup_ratio": fleet.dedup_ratio(),
        "branch_states": sorted(
            {m.state for m in fleet.branches()}),
    }
    # Physical-bytes bound: the store holds at most one logical parent
    # copy plus the branches' novel (diverged) pages — N branches never
    # cost N copies.
    assert physical <= parent_raw + novel_after, (
        "storm stored %d bytes > one parent copy (%d) + novel (%d)"
        % (physical, parent_raw, novel_after))
    del fleet, report
    gc.collect()
    return row


def test_revive_storm_scaling(request):
    """Fork-latency flatness and page sharing across storm sizes; the
    acceptance gates ride on the N=16 vs N=64 comparison."""
    rows = [_measure(branches) for branches in STORM_SIZES]
    by_n = {row["branches"]: row for row in rows}
    small, large = by_n[STORM_SIZES[0]], by_n[STORM_SIZES[-1]]

    for row in rows:
        assert row["branch_states"] == ["done"], (
            "storm N=%d left branches in %s"
            % (row["branches"], row["branch_states"]))
        assert row["shared_fraction_at_fork"] >= SHARED_FRACTION_GATE, (
            "N=%d shared %.1f%% of branch bytes at fork, gate %.0f%%"
            % (row["branches"], 100 * row["shared_fraction_at_fork"],
               100 * SHARED_FRACTION_GATE))

    assert large["fork_p95_us"] <= FORK_P95_RATIO_GATE * max(
        1, small["fork_p95_us"]), (
        "fork p95 grew from %dus (N=%d) to %dus (N=%d), gate %.1fx"
        % (small["fork_p95_us"], small["branches"],
           large["fork_p95_us"], large["branches"], FORK_P95_RATIO_GATE))

    update_artifact(request, "revive", "storm_scaling", {
        "rows": rows,
        "gates": {
            "fork_p95_ratio_max": FORK_P95_RATIO_GATE,
            "shared_fraction_min": SHARED_FRACTION_GATE,
        },
    })
    print_table(
        "revive storm scaling (one checkpoint, N branches)",
        ["N", "fork p50 us", "fork p95 us", "shared@fork",
         "private after", "physical MB", "dedup"],
        [[row["branches"], row["fork_p50_us"], row["fork_p95_us"],
          "%.1f%%" % (100 * row["shared_fraction_at_fork"]),
          "%.2f MB" % (row["private_bytes_after_run"] / MB),
          "%.2f" % (row["physical_page_bytes"] / MB),
          "%.1f%%" % (100 * row["dedup_ratio"])]
         for row in rows],
        note="gates: p95(N=%d) <= %.1fx p95(N=%d); shared fraction at "
             "fork >= %.0f%%" % (
                 STORM_SIZES[-1], FORK_P95_RATIO_GATE, STORM_SIZES[0],
                 100 * SHARED_FRACTION_GATE))


def test_revive_storm_crash_resilience(request):
    """A branch killed mid-fork neither slows the storm nor perturbs the
    survivors: recovery reclaims it, siblings all finish, and the
    refcount fsck converges (double-recover is a fixpoint)."""
    from repro.workloads.fleet_wl import run_revive_storm

    branches = STORM_SIZES[0]
    fleet, report = run_revive_storm(
        branches, seed=SEED, parent_units=PARENT_UNITS,
        branch_units=BRANCH_UNITS, crash_branch=3)
    assert report["crashed"]["recovery_ok"]
    crashed = report["crashed"]["name"]
    survivors = [m for m in fleet.branches() if m.name != crashed]
    assert len(survivors) == branches - 1
    assert all(m.state == "done" for m in survivors)
    second = fleet.recover_session(crashed)
    assert second.get("cas_orphans_reclaimed", 0) == 0 \
        or second.get("ok")
    update_artifact(request, "revive", "crash_resilience", {
        "branches": branches,
        "crashed": report["crashed"],
        "survivors_done": len(survivors),
    })
    print_table(
        "revive storm crash resilience",
        ["branches", "crashed at", "survivors done"],
        [[branches, report["crashed"]["site"], len(survivors)]])
