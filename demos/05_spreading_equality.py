"""Information access equality under weak vs strong homophily.

Seeds cascades in the majority and reports when each group reaches half
coverage, plus the terminal equality index, across an ensemble.

Run:  python3 demos/05_spreading_equality.py
"""

import numpy as np

from graphmix import (
    cascade,
    crossing_time,
    equality_report,
    gen_pah,
    make_rng,
    seeding,
)


def ensemble(h, runs=10):
    gaps, eq_final = [], []
    for seed in range(runs):
        g, _ = gen_pah(2000, 2, 0.2, h, seed=seed)
        rng = make_rng(seed)
        seeds = seeding(g, "majority-only", 5, rng)
        trace = cascade(g, seeds, p_in=0.4, p_out=0.4, rng=rng)
        t_minority = crossing_time(trace.class_fractions[:, 1], 0.5)
        t_majority = crossing_time(trace.class_fractions[:, 0], 0.5)
        if t_minority is not None and t_majority is not None:
            gaps.append(t_minority - t_majority)
        eq_final.append(equality_report(trace).equality[-1])
    return float(np.median(gaps)), float(np.median(eq_final))


def main():
    print("majority-seeded cascades, p_in = p_out = 0.4, 10 runs per h")
    print(f"{'h':>5}{'median time-to-half gap':>26}{'median terminal equality':>27}")
    for h in (0.5, 0.7, 0.9):
        gap, eq = ensemble(h)
        print(f"{h:>5.1f}{gap:>+26.2f}{eq:>27.3f}")
    print("\ngap = minority time-to-half minus majority's; larger means the")
    print("minority hears the news later even though transmission is label-blind.")


if __name__ == "__main__":
    main()
