"""Correctness checks on the benchmark's outputs, independent of the library.

Nothing here calls mfembed: distances come from a plain Dijkstra over the
edge lists, and forest validity (every host edge joins an ancestor and a
descendant, as `mfembed.hosts.check_forest_validity` requires) is tested
with Euler-tour intervals. Non-contraction uses the library's documented
1e-9 relative tolerance. The checked pairs are every pair with one end in a
seeded set of `SOURCES` vertices; they also give the distortion estimate.
"""

from __future__ import annotations

import json
import math
import pickle
from heapq import heappop, heappush

SOURCES = 8
TOLERANCE = 1e-9
INF = math.inf


def adjacency(n: int, edges) -> list[list[tuple[int, float]]]:
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def dijkstra(adj, src: int) -> list[float]:
    dist = [INF] * len(adj)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


def forest_problems(n: int, edges, parent) -> tuple[list[str], int]:
    """Problems with the elimination forest, and its depth in vertices."""
    if len(parent) != n:
        return [f"forest has {len(parent)} entries for {n} host vertices"], 0
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for v, p in enumerate(parent):
        if p is None:
            roots.append(v)
        elif not (isinstance(p, int) and 0 <= p < n and p != v):
            return [f"bad forest parent {p!r} of {v}"], 0
        else:
            children[p].append(v)
    tin = [-1] * n
    tout = [-1] * n
    depth = 0
    clock = 0
    for root in roots:
        stack = [(root, 1, False)]
        while stack:
            v, level, done = stack.pop()
            if done:
                tout[v] = clock
                continue
            tin[v] = clock
            clock += 1
            depth = max(depth, level)
            stack.append((v, level, True))
            stack.extend((c, level + 1, False) for c in children[v])
    if clock != n:
        return ["forest parent array contains a cycle"], 0
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return [f"bad host edge ({u},{v})"], depth
        if not (w >= 0 and math.isfinite(w)):
            return [f"host edge ({u},{v}) has length {w}"], depth
        if not (tin[u] <= tin[v] < tout[u] or tin[v] <= tin[u] < tout[v]):
            return [f"host edge ({u},{v}) joins unrelated forest vertices"], depth
    return [], depth


def check_host(host, graph_dist: dict[int, list[float]]):
    """Check one embedding; returns (problems, depth, host distances by source).

    `host` is (n, edges, eta, forest parent, fallback flag); `graph_dist`
    maps each checked source to its graph distances.
    """
    n, edges, eta, parent, _fallback = host
    graph_n = len(next(iter(graph_dist.values())))
    problems, depth = forest_problems(n, edges, parent)
    if len(eta) != graph_n or len(set(eta)) != graph_n or not all(0 <= x < n for x in eta):
        problems.append("vertex map is not an injection into the host")
    if problems:
        return problems, depth, {}
    adj = adjacency(n, edges)
    host_dist = {}
    for s, dg in graph_dist.items():
        dh_host = dijkstra(adj, eta[s])
        dh = [dh_host[eta[t]] for t in range(graph_n)]
        for t in range(graph_n):
            if t != s and dh[t] < dg[t] * (1.0 - TOLERANCE):
                problems.append(f"pair ({s},{t}) contracted: host {dh[t]!r} < graph {dg[t]!r}")
                break
        host_dist[s] = dh
    return problems, depth, host_dist


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(abs(a), abs(b))


def check_report(report: dict, workload, graph_n: int, hosts: list, host_dists: list,
                 graph_dist: dict[int, list[float]]) -> tuple[list[str], list[str]]:
    """Problems with an experiment report: (embedder block, baseline block)."""
    runs = workload.runs
    total = graph_n * (graph_n - 1) // 2
    want_pairs = total if workload.pairs == "all" else min(workload.pairs, total)
    main, base = [], []
    if len(report["pairs"]) != want_pairs:
        main.append(f"report has {len(report['pairs'])} pairs, expected {want_pairs}")
    if report["distortion"]["violations"]:
        main.append(f"{report['distortion']['violations']} non-contraction violations")
    if report["baseline"]["distortion"]["violations"]:
        base.append(f"{report['baseline']['distortion']['violations']} baseline violations")
    per_run = report["structural"]["per_run"]
    base_run = report["baseline"]["structural"]["per_run"]
    if len(per_run) != runs or len(base_run) != runs or len(hosts) != 2 * runs:
        main.append("report or capture does not hold one embedding per run")
        return main, base
    for i in range(runs):
        n, edges, _eta, _parent, fallback, depth = hosts[i]
        s = per_run[i]
        if (s["host_vertices"], s["host_edges"], s["treedepth"], s["fallback"]) != (
            n, len(edges), depth, fallback
        ):
            main.append(f"run {i}: structural record disagrees with the embedding")
        n_b = hosts[runs + i][0]
        if (base_run[i]["host_vertices"], base_run[i]["treedepth"]) != (n_b, hosts[runs + i][5]):
            base.append(f"baseline run {i}: structural record disagrees with the embedding")
    # Pairs touching a checked source: recompute the per-pair means.
    if all(host_dists[: runs]):
        for row in report["distortion"]["per_pair"]:
            u, v = row["u"], row["v"]
            s, t = (u, v) if u in graph_dist else (v, u) if v in graph_dist else (None, None)
            if s is None:
                continue
            mean_h = sum(host_dists[i][s][t] for i in range(runs)) / runs
            if not (_close(row["dist_g"], graph_dist[s][t]) and _close(row["mean_dist_h"], mean_h)):
                main.append(f"pair ({u},{v}): report distances disagree with a recomputation")
                break
    return main, base


def source_max_ratio(host_dists: list[dict], graph_dist: dict[int, list[float]]) -> float:
    """Mean over the checked sources of the largest mean ratio from each.

    The ratio of a pair is host over graph distance; its mean is over the
    embeddings in `host_dists` (per embedding: source -> host distances).
    """
    k = len(host_dists)
    worst = [
        max(sum(d[s][t] for d in host_dists) / k / dg[t] for t in range(len(dg)) if t != s)
        for s, dg in graph_dist.items()
    ]
    return sum(worst) / len(worst)


def check_rounds(workload, inst, rounds: list[dict], work_dir) -> dict:
    """Check round 0's saved outputs and the later rounds' digests.

    Returns quality metrics, problems, embedding counts and the digests.
    """
    g = inst.graph
    graph_adj = adjacency(g.n, g.edges)
    graph_dist = {s: dijkstra(graph_adj, s) for s in inst.sources}
    per_job = 2 * workload.runs if workload.runs else 1
    problems: list[str] = []
    bad_in_job: list[int] = []
    quality_rows = []  # per job: source max ratio, report max ratio, depth, edges, no fallback
    embed_dists = []
    digests = []
    first = rounds[0]
    for j, job_seed in enumerate(inst.job_seeds):
        if first["digests"][j] is None:
            bad_in_job.append(per_job)
            continue
        if not workload.runs:
            label = f"embedding seed={job_seed}"
            doc = json.loads((work_dir / f"embed-{j}.json").read_text(encoding="utf-8"))
            host = (doc["host"]["n"], doc["host"]["edges"], doc["eta"], doc["forest_parent"],
                    doc["fallback_used"])
            found, depth, host_dist = check_host(host, graph_dist)
            if (doc["n"], doc["seed"], doc["depth"]) != (g.n, job_seed, depth):
                found.append("JSON header (n, seed, depth) disagrees with the embedding")
            problems += [f"{label}: {p}" for p in found]
            bad_in_job.append(1 if found else 0)
            if not found:
                embed_dists.append(host_dist)
                quality_rows.append((None, None, depth, len(host[1]), 0.0 if host[4] else 1.0))
        else:
            label = f"experiment seed={job_seed}"
            report = json.loads((work_dir / f"report-{j}.json").read_text(encoding="utf-8"))
            hosts, host_dists, bad = [], [], [0, 0]  # failed embedder, FRT embeddings
            for path in sorted((work_dir / f"job-{j}").iterdir()):
                with open(path, "rb") as fh:
                    kind, n, edges, eta, parent, fallback = pickle.load(fh)
                found, depth, host_dist = check_host((n, edges, eta, parent, fallback), graph_dist)
                problems += [f"{label} {kind} {path.stem}: {p}" for p in found]
                bad[kind == "frt"] += bool(found)
                hosts.append((n, edges, eta, parent, fallback, depth))
                host_dists.append(host_dist)
            main, base = check_report(report, workload, g.n, hosts, host_dists, graph_dist)
            problems += [f"{label}: {p}" for p in main + base]
            # A report-level problem fails every embedding of its block.
            bad_in_job.append((workload.runs if main else bad[0])
                              + (workload.runs if base else bad[1]))
            if not (main or base or any(bad)):
                st = report["structural"]
                edges_mean = sum(r["host_edges"] for r in st["per_run"]) / workload.runs
                quality_rows.append((source_max_ratio(host_dists[: workload.runs], graph_dist),
                                     report["distortion"]["max_mean_ratio"],
                                     st["mean_treedepth"], edges_mean, 1.0 - st["fallback_rate"]))
        digests.append((label, first["digests"][j]))

    attempted = failed = 0
    for r, rnd in enumerate(rounds):
        for j in range(len(inst.job_seeds)):
            attempted += per_job
            if r and rnd["digests"][j] != first["digests"][j]:
                problems.append(f"round {r} job {j}: output differs from round 0")
                failed += per_job
            else:
                failed += bad_in_job[j]
        problems += [f"round {r} job {j}: raised {msg}" for j, msg in rnd["errors"]]

    quality = dict.fromkeys(("src_max_mean_ratio", "mean_treedepth", "mean_host_edges",
                             "no_fallback_rate"), 0.0)
    report_ratio = None
    if quality_rows:
        k = len(quality_rows)
        if workload.runs:
            quality["src_max_mean_ratio"] = sum(row[0] for row in quality_rows) / k
            report_ratio = sum(row[1] for row in quality_rows) / k
        else:
            quality["src_max_mean_ratio"] = source_max_ratio(embed_dists, graph_dist)
        quality["mean_treedepth"] = sum(row[2] for row in quality_rows) / k
        quality["mean_host_edges"] = sum(row[3] for row in quality_rows) / k
        quality["no_fallback_rate"] = sum(row[4] for row in quality_rows) / k
    quality["ok_frac"] = 1.0 - failed / attempted
    return {"quality": quality, "report_max_mean_ratio": report_ratio, "problems": problems,
            "attempted": attempted, "failed": failed, "digests": digests}
