"""Generate one network per model family and summarize its structure.

Run:  python3 demos/01_generate_and_inspect.py
"""

import numpy as np

from graphmix import (
    gen_directed,
    gen_pa,
    gen_pah,
    gen_patch,
    homophily_estimate,
    mixing_counts,
)


def describe(name, g):
    deg = g.total_degree_vector()
    n0, n1 = g.class_counts()
    hom = homophily_estimate(g)
    print(f"\n== {name} ==")
    print(f"nodes: {g.n} (majority {n0}, minority {n1})  edges: {g.num_edges}")
    print(f"degree: mean {deg.mean():.2f}  max {deg.max()}")
    print(f"same-class edge share: {hom:.3f}")
    print(f"mixing counts:\n{mixing_counts(g)}")


def main():
    g, _ = gen_pa(2000, 2, seed=1)
    describe("pa: plain preferential attachment", g)

    g, _ = gen_pah(2000, 2, 0.2, 0.8, seed=1)
    describe("pah: homophilic preferential attachment (h=0.8, f_m=0.2)", g)

    g, _ = gen_patch(2000, 2, 0.2, 0.8, 0.7, seed=1)
    describe("patch: homophily + triadic closure (h=0.8, p_tc=0.7)", g)

    g, _ = gen_directed("dpah", 2000, 0.005, 0.2, 0.8, seed=1)
    describe("dpah: directed homophilic preferential attachment", g)
    csr = g.csr()
    indeg, outdeg = csr.in_degree(), csr.out_degree()
    print(f"indegree: mean {indeg.mean():.2f} max {indeg.max()}   "
          f"outdegree max {outdeg.max()}")
    print(f"activity-driven sources: {np.count_nonzero(outdeg)} nodes ever post")


if __name__ == "__main__":
    main()
