#!/usr/bin/env python3
# Joint centrality of a leader set: the quantity rho such that the total
# steady-state tracking error with noise-free leaders is (sigma^2/2) * n/rho.
# The demo recomputes every error with the independent grounded-Laplacian
# oracle to show the two routes agree.

from leadsel import (
    Gain,
    LeaderSet,
    compute_kernels,
    cycle,
    erdos_renyi,
    joint_centrality,
    joint_centrality_two_gain,
    oracle_error_gain,
    oracle_error_noise_free,
    pairwise_sweep,
)

g = cycle(4)
k = compute_kernels(g)

print("cycle(4): two leader placements")
for members in ((0, 2), (0, 1)):
    res = joint_centrality(k, members)
    oracle = oracle_error_noise_free(g, LeaderSet(members)).total_error
    print(f"  S={members}: rho={res.rho:.6f}  implied error={res.implied_total_error:.6f}"
          f"  oracle={oracle:.6f}")
print("  -> antipodal leaders cover the cycle better and halve the error")
print()

# rho does not depend on which member is the pivot of the grounded expansion
# (joint_centrality takes the first one, so each rotation of the set puts
# another member first), and the two-leader closed form of the pair sweep
# matches the dense oracle.
g = erdos_renyi(10, 0.4, seed=3)
k = compute_kernels(g)
members = (1, 4, 7)
rhos = [joint_centrality(k, (p, *(v for v in members if v != p))).rho for p in members]
print(f"er(10, 0.4): rho for pivots {members}: {rhos}")
pair = pairwise_sweep(g, [(2, 9)], kernels=k).rho[0]
oracle = g.n / (2.0 * oracle_error_noise_free(g, LeaderSet((2, 9))).total_error)
print(f"two-leader closed form {pair:.10f} vs oracle {oracle:.10f}")
print()

# Leaders with finite gain k: the gain-dependent rho reproduces the dense
# trace oracle and approaches the noise-free value as k grows.
print("gain-dependent rho on the pair (2, 9):")
for kk in (0.1, 1.0, 10.0, 1e4, 1e8):
    res = joint_centrality_two_gain(k, 2, 9, kk)
    oracle = oracle_error_gain(g, LeaderSet((2, 9), Gain(kk))).total_error
    print(f"  k={kk:>10.1f}  rho_k={res.rho:12.6f}  implied={res.implied_total_error:.6f}"
          f"  oracle={oracle:.6f}")
print(f"  noise-free rho = {pair:.6f}")
