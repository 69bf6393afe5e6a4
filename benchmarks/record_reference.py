"""Record the outputs the benchmark compares against.

Run from the root of a checkout whose outputs are known to be right:

    python3 benchmarks/record_reference.py

It writes ``benchmarks/reference.json`` with, for seeds 0..15, the SHA-256 of
every Monte Carlo cell's ``per_traj`` bytes and its CSV row (first round of
``mc-heavy`` and ``mc-light``) and the strict/equal/g_empty counts of every
certificate (first round of ``certify``); and the exact gains, as fractions,
of both ``exact-dp`` instances, which do not depend on the seed.  A run whose
seed is listed fails a check for every output that differs.
"""

from __future__ import annotations

import json

from run import REFERENCE_FILE, Checks, make_workload

SEEDS = range(16)


def first_round_digest(name: str, seed: int) -> dict:
    wl = make_workload(name, seed, smoke=False)
    wl.setup()
    checks = Checks()
    out = wl.check_round(wl.round(0), None, checks)
    if checks.failures:
        raise SystemExit(f"{name} seed {seed}: output checks failed: {checks.failures}")
    return out["digest"]


def main() -> None:
    ref: dict = {}
    for name in ("mc-heavy", "mc-light", "certify"):
        ref[name] = {str(seed): first_round_digest(name, seed) for seed in SEEDS}
    ref["exact-dp"] = {"gains": first_round_digest("exact-dp", 0)["gains"]}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
