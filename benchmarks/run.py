"""chargesched benchmark: batch Monte Carlo, dominance certification, exact DP.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload mc-heavy --seed 0 --seconds 20 --trace 0

The benchmark imports ``chargesched`` from the checkout's ``src/`` and drives
it through its public API from one process and one thread.  A run repeats one
fixed unit of work (a *round*) until ``--seconds`` have passed, checks every
round's outputs, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` count output checks, so failed / attempted is the run's
``failed_frac``.

Workloads (why each exists is in README.md):

* ``mc-heavy``  -- `figure_experiment` on ``capacity_scenario(30, "quadratic")``,
  EDF/LLSP/LLLP, 400 chargers, T=200.
* ``mc-light``  -- the same cell shape at arrival rate 5.
* ``certify``   -- `certify_dominance` on ``capacity_scenario(20)`` for
  EDF and LLSP under linear and quadratic penalties.
* ``exact-dp``  -- the exact pipeline on the two-charger instance and a
  generated four-charger instance, then a DP-vs-simulation `run_trajectory`
  rollout under the optimal two-charger `TabularPolicy`.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference machine speed (see `Paced`); ``--trace 1`` runs untraced
rounds, then traced rounds with every public layer function wrapped (see
``spans.py``), and reports per-layer calls and self-time shares.  Result
files and span files go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

POLICIES = ("edf", "llsp", "lllp")
SETUP_PROBES = 5          # set-up is timed this many times; the median is reported
GUARD_RUN = -1            # run id of the engine-guard probe spans
CHECK_RUN = -2            # run id of spans from output checks between traced rounds
ROUND_SPAN = "benchmark.round"
PACE_SPAN = "benchmark.pace"
DP_SIM_REL_TOL = Fraction(8, 100)
PACE_REF_S = 0.001        # pace-kernel time that reported times are scaled to
PACE_INTERVAL_S = 0.025   # work between two pace samples inside a timed block


def import_program():
    """Import chargesched from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chargesched" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no chargesched sources under {src}")
    sys.path.insert(0, str(src))
    import chargesched
    if Path(chargesched.__file__).resolve().parent != src / "chargesched":
        raise SystemExit(f"benchmark: imported chargesched from {chargesched.__file__}")
    return chargesched


class Checks:
    """Counts output checks; failed / attempted is the run's failed_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def pace_kernel() -> None:
    """A fixed piece of pure-Python work of the kinds chargesched does: dict
    churn on tuple keys, a keyed sort and rational arithmetic (about 1 ms)."""
    d: dict = {}
    for i in range(2000):
        key = ((i * 31) % 97, i % 5)
        d[key] = d.get(key, 0) + 1
    sorted(range(1500), key=lambda i: ((i * 7919) % 1009, -i))
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(1, i)


class Paced:
    """Times a block of work and the host's speed while it runs.

    On a shared host the speed of the machine changes from one moment to the
    next: on the 2-core host this benchmark was tuned on, the same code ran
    about 1.7x slower for stretches of a few hundred milliseconds to minutes,
    with CPU time tracking wall time, so the drift is in the hardware the host
    shares, not in scheduling.  So the block runs with `pace_kernel` timed on
    entry, on exit, and from a SIGALRM handler every PACE_INTERVAL_S of work in
    between.  ``raw`` is the block's wall time without the samples; ``scaled``
    is ``raw * PACE_REF_S / mean(samples)``: the time the block would take at
    the speed at which the kernel takes PACE_REF_S.  Blocks must not nest.
    While ``Paced.tracer`` is set, each sample is a PACE_SPAN span, so it is
    counted in no layer's self time; a sample due while the tracer is in the
    middle of its own bookkeeping is put off by a millisecond.
    """

    tracer = None

    def _sample(self, *_) -> None:
        if self.armed and Paced.tracer is not None and Paced.tracer.busy:
            signal.setitimer(signal.ITIMER_REAL, 0.001)
            return
        collecting = gc.isenabled()
        gc.disable()          # a collection of the program's heap is not a sample
        t0 = perf_counter()
        if Paced.tracer is None:
            pace_kernel()
        else:
            with Paced.tracer.span(PACE_SPAN):
                pace_kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t1 - t0)
        if self.armed:
            self.paused += perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S)

    def __enter__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self.armed = False
        self._sample()
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self.armed = True
        self.t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self.previous)
        self.raw = wall - self.paused
        self._sample()
        self.scaled = self.raw * PACE_REF_S / statistics.fmean(self.samples)

    @property
    def times(self) -> tuple[float, float]:
        return (self.raw, self.scaled)


RAW, SCALED = 0, 1   # index into a (raw, scaled) pair of times


def add_times(*pairs: tuple[float, float]) -> tuple[float, float]:
    return (sum(p[RAW] for p in pairs), sum(p[SCALED] for p in pairs))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class MonteCarloWorkload:
    """One round = one `figure_experiment` call: three policy cells at one
    arrival rate, all trajectories advanced by the batch engine.

    The cost of a round varies by about 10% from one seed to the next, so
    each round draws fresh trajectories (its own seed) and the run reports
    the median over rounds rather than the cost of one seed.
    """

    min_rounds = 3

    def __init__(self, name: str, seed: int, smoke: bool, rate: int, n_traj: int):
        self.name, self.seed, self.smoke, self.rate = name, seed, smoke, rate
        self.n_traj = 6 if smoke else n_traj
        self.stages = 30 if smoke else 200

    def setup(self):
        self.cs = import_program()
        models, policies = self.cs.models, self.cs.policies
        self.scenario = models.capacity_scenario(self.rate, "quadratic")
        self.policies = {p: policies.make_policy(p, self.scenario) for p in POLICIES}

    def _experiment(self, stages: int, n_traj: int, seed: int):
        return self.cs.montecarlo.figure_experiment(
            "quadratic", (self.rate,), stages=stages, n_traj=n_traj,
            seed=seed, policies=POLICIES, threads=1)

    def round_seed(self, index: int) -> int:
        """Round 0 runs on the run's own seed, the one the reference holds."""
        return self.seed if index == 0 else self.seed * 1000 + index

    def warm(self):
        self._experiment(2, 2, self.seed)

    def guard(self, checks: Checks) -> list[str]:
        """Run a tiny experiment under the tracer and fail every cell that
        did not take the batch engine (a silent scalar fallback)."""
        with Tracer() as tracer:
            tracer.run = GUARD_RUN
            self._experiment(2, 2, self.seed)
        engines = engines_per_cell(tracer, [GUARD_RUN])
        checks.check("engine guard: one monte_carlo call per cell",
                     len(engines) == len(POLICIES))
        for pol, engine in zip(POLICIES, engines):
            checks.check(f"engine guard: {pol} cell took the {engine} engine",
                         engine == "batch")
        return engines

    def round(self, index: int) -> dict:
        with Paced() as t:
            table = self._experiment(self.stages, self.n_traj, self.round_seed(index))
        return {"wall": t.times, "items": len(POLICIES) * self.n_traj * self.stages,
                "table": table}

    def digest(self, table) -> dict:
        import numpy as np
        from chargesched.montecarlo import CSV_COLUMNS
        rows = {r["policy"]: r for r in table.rows()}
        out = {}
        for pol in POLICIES:
            per = np.ascontiguousarray(table.cells[(pol, self.rate)].per_traj,
                                       dtype=np.float64)
            out[pol] = {"per_traj_sha256": hashlib.sha256(per.tobytes()).hexdigest(),
                        "csv_row": ",".join(str(rows[pol][c]) for c in CSV_COLUMNS)}
        return out

    def check_round(self, out: dict, first: dict | None, checks: Checks) -> dict:
        import numpy as np
        table = out.pop("table")
        for pol in POLICIES:
            per = table.cells[(pol, self.rate)].per_traj
            checks.check(f"{pol}: per_traj has n_traj finite entries",
                         len(per) == self.n_traj and bool(np.isfinite(per).all()))
        out["digest"] = self.digest(table)
        if first is None:
            out["table"] = table          # kept for the engine-agreement check
        return out

    def final_checks(self, first: dict, reference: dict | None, checks: Checks):
        """The first round reproduces on a re-run; batch and scalar engines
        agree bit for bit on sampled trajectories; outputs match the recorded
        reference for this seed, if there is one."""
        import numpy as np
        run_trajectory = self.cs.montecarlo.run_trajectory
        again = self.digest(self._experiment(self.stages, self.n_traj, self.seed))
        for pol in POLICIES:
            checks.check(f"{pol}: first round output reproduces on a re-run",
                         again[pol] == first["digest"][pol])
        table = first.pop("table")
        for pol in POLICIES:
            per = table.cells[(pol, self.rate)].per_traj
            for i in sorted({0, self.n_traj - 1}):
                tr = run_trajectory(self.scenario, self.policies[pol], self.stages,
                                    self.seed, traj=i, record_stages=False)
                checks.check(f"{pol} traj {i}: scalar engine equals batch per_traj",
                             np.float64(tr.time_average).tobytes()
                             == np.float64(per[i]).tobytes())
        if reference is not None:
            for pol in POLICIES:
                checks.check(f"{pol}: per_traj and CSV row match the reference",
                             first["digest"][pol] == reference[pol])

    def reference_key(self) -> str | None:
        return None if self.smoke else str(self.seed)

    def end_to_end(self, rounds: list[dict], k: int) -> dict:
        return {
            "work_per_s": statistics.median([r["items"] / r["wall"][k] for r in rounds]),
            "solve_s": statistics.median([r["wall"][k] for r in rounds]),
            "named": {"traj_stages_per_s": "work_per_s"},
        }


def generated_instance(cs, num_chargers: int):
    """A B=E=2 instance with two grid states whose kernel tilts toward the
    expensive state as more vehicles charge, and a three-outcome arrival law.
    Built from the public constructors only."""
    from chargesched.core import PenaltyFunction, VehicleState
    m = cs.models
    rows = []
    for a in range(num_chargers + 1):
        p_high = Fraction(1, 5) + Fraction(3, 5) * Fraction(a, num_chargers)
        rows.append((1 - p_high, p_high))
    kernel = (tuple(rows), tuple(rows))
    cost = m.TableCost(tuple((Fraction(0), Fraction(a)) for a in range(num_chargers + 1)))
    grid = m.GridModel(values=(0, 1), kernel=kernel, cost=cost)
    arrivals = m.TabulatedArrivals((
        (Fraction(1, 2), ()),
        (Fraction(1, 4), (VehicleState(2, 1),)),
        (Fraction(1, 4), (VehicleState(2, 2), VehicleState(1, 1))),
    ))
    demand = m.DemandModel(kernel=((Fraction(1),),), arrivals=(arrivals,))
    return m.ScenarioModel(
        name=f"generated-{num_chargers}-charger", num_chargers=num_chargers,
        max_stay=2, max_units=2, grid=grid, demand=demand,
        penalty=PenaltyFunction.quadratic(2), initial_grid=0, initial_demand=0)


class CertifyWorkload:
    """One round = `certify_dominance` for EDF and LLSP under linear and
    quadratic penalties on the rate-20 capacity benchmark.

    The cost of a case depends on how far the scan runs before it finds a
    violation, so each round certifies fresh cases (its own seed) and the run
    reports the median over rounds rather than one fixed set of cases.
    """

    min_rounds = 3
    jobs = tuple((pen, pol) for pen in ("linear", "quadratic") for pol in ("edf", "llsp"))

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.cases = 2 if smoke else 25

    def setup(self):
        self.cs = import_program()
        models, policies = self.cs.models, self.cs.policies
        self.scenarios = {pen: models.capacity_scenario(20, pen)
                          for pen in ("linear", "quadratic")}
        self.policies = {(pen, pol): policies.make_policy(pol, self.scenarios[pen])
                         for pen, pol in self.jobs}

    def warm(self):
        pen, pol = self.jobs[0]
        self.cs.interchange.certify_dominance(
            self.scenarios[pen], self.policies[(pen, pol)], n_cases=1, seed=self.seed)

    def guard(self, checks: Checks) -> list[str]:
        return []

    def round_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def round(self, index: int) -> dict:
        certify = self.cs.interchange.certify_dominance
        seed = self.round_seed(index)
        with Paced() as t:
            reports = [certify(self.scenarios[pen], self.policies[(pen, pol)],
                               n_cases=self.cases, seed=seed)
                       for pen, pol in self.jobs]
        return {"wall": t.times, "items": len(self.jobs) * self.cases, "reports": reports}

    def check_round(self, out: dict, first: dict | None, checks: Checks) -> dict:
        counts = {}
        for (pen, pol), rep in zip(self.jobs, out.pop("reports")):
            tag = f"{pol}/{pen}"
            checks.check(f"{tag}: certificate ok", rep.ok)
            checks.check(f"{tag}: strict + equal == cases",
                         rep.strict + rep.equal == self.cases == rep.n_cases)
            counts[tag] = [rep.strict, rep.equal, rep.g_empty_cases]
        out["digest"] = counts
        return out

    def final_checks(self, first: dict, reference: dict | None, checks: Checks):
        """Certifying the first round's first job again gives the same
        counts; the first round matches the recorded reference, if any."""
        pen, pol = self.jobs[0]
        rep = self.cs.interchange.certify_dominance(
            self.scenarios[pen], self.policies[(pen, pol)], n_cases=self.cases,
            seed=self.round_seed(0))
        checks.check("certificate counts reproduce on a re-run",
                     [rep.strict, rep.equal, rep.g_empty_cases]
                     == first["digest"][f"{pol}/{pen}"])
        if reference is not None:
            for tag, counts in first["digest"].items():
                checks.check(f"{tag}: strict/equal/g_empty match the reference",
                             counts == reference[tag])

    def reference_key(self) -> str | None:
        return None if self.smoke else str(self.seed)

    def end_to_end(self, rounds: list[dict], k: int) -> dict:
        return {
            "work_per_s": statistics.median([r["items"] / r["wall"][k] for r in rounds]),
            "solve_s": statistics.median([r["wall"][k] for r in rounds]),
            "named": {"certify_cases_per_s": "work_per_s"},
        }


class ExactDPWorkload:
    """One round = the exact pipeline on both instances (timed as a whole),
    then DP-vs-simulation rollout chunks under the optimal two-charger policy
    (each chunk timed on its own)."""

    min_rounds = 2

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.generated_chargers = 3 if smoke else 4
        self.chunks = 2 if smoke else 10
        self.chunk_stages = 200 if smoke else 1000

    def setup(self):
        self.cs = import_program()
        self.instances = (self.cs.models.two_charger_scenario(),
                          generated_instance(self.cs, self.generated_chargers))

    def warm(self):
        self.cs.exactdp.enumerate_mdp(self.instances[0])

    def guard(self, checks: Checks) -> list[str]:
        return []

    def _solve(self, scenario, brute_force: bool) -> dict:
        dp = self.cs.exactdp
        mdp = dp.enumerate_mdp(scenario)
        sol = dp.relative_value_iteration(mdp)
        findings = dp.verify_constant_gain(mdp, sol, tol=1e-10)
        gain = dp.exact_policy_gain(mdp, sol.policy)
        proj = dp.lllp_projection(mdp, sol)
        proj_gain = dp.exact_policy_gain(mdp, proj.policy)
        bf = dp.brute_force_optimal_gain(mdp) if brute_force else None
        return {"name": scenario.name, "mdp": mdp, "sol": sol, "findings": findings,
                "gain": gain, "proj": proj, "proj_gain": proj_gain, "bf": bf}

    def round(self, index: int) -> dict:
        dp, mc = self.cs.exactdp, self.cs.montecarlo
        with Paced() as t:
            solved = [self._solve(sc, brute_force=(k == 0))
                      for k, sc in enumerate(self.instances)]
        two = solved[0]
        policy = dp.TabularPolicy(two["mdp"], two["sol"].policy)
        chunks = []
        for c in range(self.chunks):
            with Paced() as tc:
                tr = mc.run_trajectory(self.instances[0], policy, self.chunk_stages,
                                       self.seed, traj=c, record_stages=False)
            chunks.append((tc.times, tr.time_average))
        wall = add_times(t.times, *(w for w, _ in chunks))
        return {"wall": wall, "dp_s": t.times, "chunks": chunks, "solved": solved}

    def check_round(self, out: dict, first: dict | None, checks: Checks) -> dict:
        dp = self.cs.exactdp
        gains = {}
        for s in out.pop("solved"):
            tag = s["name"]
            checks.check(f"{tag}: Bellman residual and constant gain",
                         s["findings"].ok)
            checks.check(f"{tag}: projected gain == exact policy gain",
                         s["proj_gain"] == s["gain"])
            checks.check(f"{tag}: projection is priority compliant",
                         dp.compliance_violations(s["mdp"], s["proj"].policy) == 0)
            if s["bf"] is not None:
                checks.check(f"{tag}: brute-force gain == exact policy gain",
                             s["bf"].gain == s["gain"])
            gains[tag] = str(s["gain"])
        out["digest"] = {"gains": gains,
                         "sim": [avg for _, avg in out["chunks"]]}
        if first is not None:
            checks.check("exact gains and rollout averages identical to the first round",
                         out["digest"] == first["digest"])
        return out

    def final_checks(self, first: dict, reference: dict | None, checks: Checks):
        """The rollout's average cost lies within DP_SIM_REL_TOL of the exact
        gain: one 1000-stage chunk has a relative standard deviation of about
        4%, so the mean of ten is about 1.3% and the tolerance is six of those."""
        gain = Fraction(first["digest"]["gains"][self.instances[0].name])
        sim = statistics.fmean(first["digest"]["sim"])
        checks.check("DP-vs-simulation average within tolerance of the gain",
                     abs(Fraction(sim) - gain) <= DP_SIM_REL_TOL * gain)
        if reference is not None:
            for tag, g in reference.items():
                checks.check(f"{tag}: exact gain matches the reference",
                             first["digest"]["gains"].get(tag) == g)

    def reference_key(self) -> str | None:
        return None if self.smoke else "gains"

    def end_to_end(self, rounds: list[dict], k: int) -> dict:
        return {
            "work_per_s": statistics.median([self.chunk_stages / w[k]
                                             for r in rounds for w, _ in r["chunks"]]),
            "solve_s": statistics.median([r["dp_s"][k] for r in rounds]),
            "named": {"scalar_stages_per_s": "work_per_s", "dp_solve_s": "solve_s"},
        }


WORKLOADS = ("mc-heavy", "mc-light", "certify", "exact-dp")


def make_workload(name: str, seed: int, smoke: bool):
    if name == "mc-heavy":
        return MonteCarloWorkload(name, seed, smoke, rate=30, n_traj=200)
    if name == "mc-light":
        return MonteCarloWorkload(name, seed, smoke, rate=5, n_traj=1000)
    if name == "certify":
        return CertifyWorkload(name, seed, smoke)
    if name == "exact-dp":
        return ExactDPWorkload(name, seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Set-up time, environment
# ---------------------------------------------------------------------------

# numpy and scipy are imported before the clock starts: their import (about
# 0.4 s, five times the program's own set-up) is a cost of the environment
# that no change to src/ moves, and its noise would hide the program's part.
_PROBE = """\
import sys
import numpy
import scipy.sparse
import scipy.sparse.csgraph
sys.path.insert(0, sys.argv[1])
import run
for _ in range(20):
    run.pace_kernel()
with run.Paced() as t:
    wl = run.make_workload(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    wl.setup()
    wl.warm()
print(*t.times)
"""


def setup_seconds(workload: str, seed: int, smoke: bool,
                  probes: int) -> list[tuple[float, float]]:
    """Import of chargesched + scenario build + policies + one tiny warm
    call, timed in fresh interpreters; (raw, scaled) seconds of each."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(BENCH_DIR), workload, str(seed),
             "1" if smoke else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw, scaled = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(scaled)))
    return times


def environment() -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except OSError:
            pass
    src_lines = sum(p.read_bytes().count(b"\n")
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_lines": src_lines}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Tracing analysis
# ---------------------------------------------------------------------------

def engines_per_cell(tracer: Tracer, runs) -> list[str]:
    """The engine each `monte_carlo` call took: the batch engine draws through
    `uniforms_batch`, the scalar fallback calls `run_trajectory`."""
    out = []
    for children in tracer.children_by_name("montecarlo.monte_carlo", runs):
        if children.get("montecarlo.run_trajectory"):
            out.append("scalar")
        elif children.get("streams.uniforms_batch"):
            out.append("batch")
        else:
            out.append("unknown")
    return out


def _observers(streams):
    blocks = streams._BLOCKS     # frozen stream layout: uint64 blocks per source

    def draws(tracer, args, kwargs, result):
        source = args[3] if len(args) > 3 else kwargs["source"]
        rows = result.shape[0] if result.ndim == 2 else 1
        tracer.count("streams.u64_drawn", 4 * blocks[source] * rows)
        tracer.count("streams.u64_used", result.size)

    def certify(tracer, args, kwargs, result):
        tracer.count("interchange.cases", result.n_cases)

    def enumerate_(tracer, args, kwargs, result):
        tracer.count("exactdp.states", result.n_states)
        tracer.count("exactdp.state_actions", sum(len(a) for a in result.actions))

    def rvi(tracer, args, kwargs, result):
        tracer.count("exactdp.relative_value_iteration.iterations", result.iterations)

    def brute(tracer, args, kwargs, result):
        tracer.count("exactdp.bf_evaluations", result.n_evaluations)
        tracer.count("exactdp.bf_policies", result.n_policies)

    return {"streams.uniforms_batch": draws, "streams.uniforms": draws,
            "interchange.certify_dominance": certify,
            "exactdp.enumerate_mdp": enumerate_,
            "exactdp.relative_value_iteration": rvi,
            "exactdp.brute_force_optimal_gain": brute}


def per_layer_metrics(tracer: Tracer, runs: list[int]) -> dict:
    """Calls per traced round and self time as a share of the traced rounds'
    wall time for every wrapped function, plus the counts and ratios the
    layers are judged by.

    Self time is reported as a share, with the round time beside it, because
    a layer a workload never calls would otherwise print a time of exactly 0
    on every run.  Seconds per round are ``self_frac * trace.round_s``.
    """
    from spans import SPAN_NAMES
    n = len(runs)
    calls, selfs, totals = tracer.self_times(runs)
    round_total = totals[ROUND_SPAN] - totals.get(PACE_SPAN, 0.0)
    counts: dict[str, float] = {}
    for (run, key), v in tracer.counts.items():
        if run in runs:
            counts[key] = counts.get(key, 0) + v

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
        m[f"{name}.self_frac"] = (selfs.get(name, 0.0) / round_total, "frac")
    m["trace.round_s"] = (round_total / n, "s")
    m["streams.u64_drawn"] = (counts.get("streams.u64_drawn", 0) / n, "count")
    m["streams.u64_used_frac"] = (ratio(counts.get("streams.u64_used", 0),
                                        counts.get("streams.u64_drawn", 0)), "frac")
    m["policies.decide_per_stage"] = (ratio(calls.get("policies.HeuristicPolicy.decide", 0),
                                            calls.get("montecarlo.advance_stage", 0)), "ratio")
    scan = tracer.child_calls("interchange.certify_dominance", "montecarlo.advance_stage", runs)
    m["interchange.scan_stages_per_case"] = (ratio(scan, counts.get("interchange.cases", 0)),
                                             "count")
    m["exactdp.relative_value_iteration.iterations"] = (
        counts.get("exactdp.relative_value_iteration.iterations", 0) / n, "count")
    m["exactdp.states"] = (counts.get("exactdp.states", 0) / n, "count")
    m["exactdp.state_actions"] = (counts.get("exactdp.state_actions", 0) / n, "count")
    m["exactdp.bf_evaluations_per_policy"] = (ratio(counts.get("exactdp.bf_evaluations", 0),
                                                    counts.get("exactdp.bf_policies", 0)),
                                              "ratio")
    return m


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _timed_rounds(wl, seconds: float, min_rounds: int, checks: Checks,
                  first: dict | None, tracer: Tracer | None = None) -> list[dict]:
    rounds = []
    t_start = perf_counter()
    # After min_rounds, start another round only if it should end no more
    # than half a round past the deadline (exact-dp rounds take seconds).
    while (len(rounds) < min_rounds
           or perf_counter() - t_start + rounds[-1]["wall"][RAW] / 2 < seconds):
        if tracer is not None:
            tracer.run = len(rounds)
            Paced.tracer = tracer
            try:
                with tracer.span(ROUND_SPAN):
                    out = wl.round(len(rounds))
            finally:
                Paced.tracer = None
            tracer.run = CHECK_RUN
        else:
            out = wl.round(len(rounds))
        out = wl.check_round(out, first, checks)
        if first is None:
            first = out
        rounds.append(out)
    return rounds


def load_reference(wl) -> dict | None:
    key = wl.reference_key()
    if key is None or not REFERENCE_FILE.is_file():
        return None
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(wl.name, {}).get(key)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one set-up probe, for the harness's own test")
    args = ap.parse_args(argv)

    wl = make_workload(args.workload, args.seed, args.smoke)
    wl.setup()
    wl.warm()
    for _ in range(20):       # the first calls pay one-off costs
        pace_kernel()
    env = environment()
    checks = Checks()
    engines = wl.guard(checks)
    if checks.failures:
        for what in checks.failures:
            print(f"FAILED {what}")
        print(json.dumps({"correct": False, "attempted": checks.attempted,
                          "failed": len(checks.failures), "metrics": {}}))
        return 1

    result: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "smoke": args.smoke, "environment": env,
                    "guard_engines": engines}
    # (own name, scaled value, unit, raw value) for the human-readable lines
    named: list[tuple[str, float, str, float]] = []
    if args.trace == 0:
        setup_times = setup_seconds(wl.name, args.seed, args.smoke,
                                    1 if args.smoke else SETUP_PROBES)
        rounds = _timed_rounds(wl, args.seconds, wl.min_rounds, checks, None)
        wl.final_checks(rounds[0], load_reference(wl), checks)
        rss = peak_rss_mb()
        both = {}
        for k in (SCALED, RAW):
            e2e = wl.end_to_end(rounds, k)
            both[k] = {
                "setup_s": (statistics.median(t[k] for t in setup_times), "s"),
                "work_per_s": (e2e["work_per_s"], "1/s"),
                "solve_s": (e2e["solve_s"], "s"),
                "peak_rss_mb": (rss, "MB"),
            }
        metrics = both[SCALED]
        for own, generic in {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
                             **e2e["named"]}.items():
            value, unit = metrics[generic]
            named.append((own, value, unit, both[RAW][generic][0]))
        result["raw_metrics"] = {k: {"value": v, "unit": u}
                                 for k, (v, u) in both[RAW].items()}
        result["rounds"] = len(rounds)
        result["round_walls"] = [r["wall"] for r in rounds]
        result["setup_times"] = setup_times
    else:
        half = args.seconds / 2
        plain = _timed_rounds(wl, half, 1, checks, None)
        tracer = Tracer(_observers(wl.cs.streams))
        with tracer:
            traced = _timed_rounds(wl, half, 1, checks, plain[0], tracer)
        wl.final_checks(plain[0], load_reference(wl), checks)
        runs = list(range(len(traced)))
        metrics = per_layer_metrics(tracer, runs)
        traced_wall = statistics.median(r["wall"][SCALED] for r in traced)
        plain_wall = statistics.median(r["wall"][SCALED] for r in plain)
        metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1, "frac")
        if isinstance(wl, MonteCarloWorkload):
            cells = engines_per_cell(tracer, runs)
            result["traced_engines"] = cells
            for k, engine in enumerate(cells):
                checks.check(f"traced cell {k}: {engine} engine", engine == "batch")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"{wl.name}-seed{args.seed}.spans.csv.gz"
        result["span_file"] = str(span_file.relative_to(ROOT))
        result["spans"] = tracer.write(span_file)
        result["rounds"] = {"untraced": len(plain), "traced": len(traced)}

    if not all(math.isfinite(v) for v, _ in metrics.values()):
        raise RuntimeError(f"non-finite metric in {metrics}")
    failed = len(checks.failures)
    failed_frac = failed / checks.attempted
    named.append(("failed_frac", failed_frac, "ratio", failed_frac))
    result.update({"attempted": checks.attempted, "failed": failed,
                   "failures": checks.failures[:20],
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "named_metrics": {k: {"value": v, "unit": u, "raw": r}
                                     for k, v, u, r in named}})
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, v, u, r in named:
        print(f"metric {k} {v:.6g} {u} raw {r:.6g}")
    for what in checks.failures[:20]:
        print(f"FAILED {what}")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
