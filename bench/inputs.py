"""Seeded inputs for the four workloads.

Runs in the driver only, with numpy and without leadsel: the workload
process receives the generated edge-list texts, leader sets and simulation
settings, so neither its set-up time nor its memory includes the
generators, and a change to the package cannot change the inputs. The same
seed gives the same inputs whatever ``--seconds`` is.

Each workload is a list of rounds. Every round holds the same query shapes
(sizes, leader counts, modes) in the same order; only the random graphs,
weights and seeds differ between rounds and between benchmark seeds, so a
query's cost does not depend on the seed.
"""

import numpy as np

WORKLOADS = ("small-exhaustive", "large-graph", "simulate", "cli-cold")

# distinct rounds per run; a run that gets through more cycles back to round 0
ROUNDS = 16

SMALL_SIZES = tuple(range(14, 29, 2))
SMALL_P = 0.3
SMALL_KINDS = ((2, None), (3, None), (2, 1.0), (3, 1.0))  # (m, gain k or noise-free)

SWEEP_DEGREE = 8.0
# two greedy queries a round, so the tail sample (ten beyond it) always
# falls among them, and an odd count, so the median is one query shape
LARGE_ROUND = (("sweep", 250), ("sweep", 500), ("greedy", 150), ("sweep", 1000),
               ("sweep", 250), ("greedy", 150), ("sweep", 500))
GREEDY_M = 5
# Pause after a greedy query, outside the timed intervals. Greedy factors
# with scipy, whose OpenBLAS threads then spin for about 0.2 s and slow
# numpy's next eigensolve by a varying amount (up to several times), which
# made the query after it the noisiest in the run.
GREEDY_SETTLE_S = 0.3

SIM_DT = 0.01
SIM_STEPS = 60_000

CLI_ER = (40, 0.3)
CLI_SIM_STEPS = 20_000


def connected(n, us, vs):
    adj = [[] for _ in range(n)]
    for u, v in zip(us.tolist(), vs.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def er_text(rng, n, p, weighted=False):
    """Edge-list text of a connected G(n, p) sample; weights uniform in [0.5, 2)."""
    iu, iv = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < p
        us, vs = iu[keep], iv[keep]
        if connected(n, us, vs):
            break
    lines = [f"n={n}"]
    if weighted:
        ws = rng.uniform(0.5, 2.0, us.size)
        lines += [f"{u} {v} {w!r}" for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist())]
    else:
        lines += [f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist())]
    return "\n".join(lines) + "\n"


def cycle_text(n):
    return f"n={n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n))


def path_text(n):
    return f"n={n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))


def seed32(rng):
    return int(rng.integers(2**31))


def small_exhaustive(rng, sizes=SMALL_SIZES):
    out = []
    for i, n in enumerate(sizes):
        for j, (m, k) in enumerate(SMALL_KINDS):
            out.append({"graph": er_text(rng, n, SMALL_P, weighted=(i + j) % 2 == 1),
                        "m": m, "k": k, "check_seed": seed32(rng)})
    return out


def large_graph(rng, shapes=LARGE_ROUND, greedy_m=GREEDY_M, settle_s=GREEDY_SETTLE_S):
    out = []
    for kind, n in shapes:
        out.append({"kind": kind, "graph": er_text(rng, n, SWEEP_DEGREE / (n - 1)),
                    "m": greedy_m, "check_seed": seed32(rng),
                    "settle_s": settle_s if kind == "greedy" else 0.0})
    return out


def simulate(rng, steps=SIM_STEPS):
    er8 = er_text(rng, 8, 0.5)
    er40 = er_text(rng, 40, 0.3)
    cases = (
        (cycle_text(4), (0, 2), None),
        (cycle_text(6), (0,), None),
        (path_text(9), (1, 7), None),
        (er8, (0, 3), 2.0),
        (er40, (0, 1, 2), None),
        (er40, (0, 1), 5.0),
    )
    return [{"graph": text, "leaders": list(leaders), "k": k,
             "dt": SIM_DT, "steps": steps, "seed": seed32(rng)}
            for text, leaders, k in cases]


def cli_cold(rng, r):
    """One round of CLI invocations.

    '@name' arguments name files in the returned dict. Each invocation
    carries ``ref``, the library call whose result its output must equal.
    """
    er = f"er40-r{r}"
    sim_seed, gen_seed = seed32(rng), seed32(rng)
    files = {"cycle6": cycle_text(6), "path9": path_text(9), er: er_text(rng, *CLI_ER)}
    n, p = CLI_ER
    return files, [
        {"argv": ["centrality", "@" + er],
         "ref": {"call": "centrality", "graph": er}},
        {"argv": ["centrality", "@" + er, "--format", "csv"],
         "ref": {"call": "centrality", "graph": er, "csv": True}},
        {"argv": ["centrality", "@cycle6", "--full"],
         "ref": {"call": "centrality", "graph": "cycle6", "full": True}},
        {"argv": ["select", "@path9", "--m", "2", "--method", "closed-form", "--topology", "path"],
         "ref": {"call": "closed_form_path_two", "graph": "path9"}},
        {"argv": ["select", "@" + er, "--m", "2"],
         "ref": {"call": "exhaustive_select", "graph": er, "m": 2}},
        {"argv": ["pairs", "@" + er],
         "ref": {"call": "pairwise_sweep", "graph": er, "bins": 10}},
        {"argv": ["verify", "@cycle6"],
         "ref": {"call": "verify_graph", "graph": "cycle6"}},
        {"argv": ["verify", "--suite", "small"],
         "ref": {"call": "verify_small_suite"}},
        {"argv": ["simulate", "@cycle6", "--leaders", "0,3", "--steps", str(CLI_SIM_STEPS),
                  "--seed", str(sim_seed)],
         "ref": {"call": "simulate", "graph": "cycle6", "leaders": [0, 3], "dt": SIM_DT,
                 "steps": CLI_SIM_STEPS, "seed": sim_seed}},
        {"argv": ["generate", "erdos-renyi", "--n", str(n), "--p", str(p), "--seed", str(gen_seed)],
         "ref": {"call": "erdos_renyi", "n": n, "p": p, "seed": gen_seed}},
    ]


def generate(workload, seed):
    """The input document handed to the workload process on stdin."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    files = {}
    if workload == "small-exhaustive":
        warmup = small_exhaustive(rng, sizes=(8,))
        rounds = [small_exhaustive(rng) for _ in range(ROUNDS)]
    elif workload == "large-graph":
        warmup = large_graph(rng, shapes=(("sweep", 60), ("greedy", 30)), greedy_m=2, settle_s=0.0)
        rounds = [large_graph(rng) for _ in range(ROUNDS)]
    elif workload == "simulate":
        warmup = simulate(rng, steps=1000)
        rounds = [simulate(rng) for _ in range(ROUNDS)]
    else:
        files["cycle4"] = cycle_text(4)
        warmup = [{"argv": ["centrality", "@cycle4"],
                   "ref": {"call": "centrality", "graph": "cycle4"}}]
        rounds = []
        for r in range(ROUNDS):
            round_files, queries = cli_cold(rng, r)
            files.update(round_files)
            rounds.append(queries)
    return {"workload": workload, "seed": seed, "files": files,
            "warmup": warmup, "rounds": rounds}
