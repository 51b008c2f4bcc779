"""Inputs, timed loops and oracle checks of the three benchmark workloads.

Every input is drawn from `numpy.random.default_rng(seed)` in the
workload's constructor, which is the set-up that `setup_s` measures.
`unit()` runs one pass of the workload and keeps the timings and the
last result of each operation; the caller repeats it until the time is
spent. `check()` runs the oracles afterwards, outside every timed region.

All calls into the package go through module attributes (for example
`region_atlas.scan`), so the traced run sees the wrappers it patches in.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
import traceback

import numpy as np

from pwlcycles import (
    cli,
    config,
    cycle_solver,
    errors,
    plrnn,
    region_atlas,
    simulator,
    skew_tent,
)

TYPED_SOLVER_ERRORS = (
    errors.NotAdmissibleError,
    errors.SingularDenominatorError,
    errors.EigenvalueOneError,
    errors.DegenerateOffsetError,
)

SIZES = {
    "full": {
        "atlas_grid": 400, "atlas_csv_grid": 80, "atlas_samples": 150,
        "orbit_d_steps": 120, "orbit_steps": 10_000, "orbit_transient": 2_000,
        "tail_steps": 101_000, "state_systems": 4, "state_steps": 5_000,
        "canonical_per_m": (240, 180, 120, 60), "networks": 150,
        "cli_per_kind": 25,
    },
    "tiny": {
        "atlas_grid": 40, "atlas_csv_grid": 10, "atlas_samples": 20,
        "orbit_d_steps": 12, "orbit_steps": 3_000, "orbit_transient": 1_000,
        "tail_steps": 101_000, "state_systems": 1, "state_steps": 3_000,
        "canonical_per_m": (16, 12, 8, 4), "networks": 10,
        "cli_per_kind": 2,
    },
}

SOLVE_MS = (0, 3, 16, 64)


# Program defects the checks find and count as failed, by name. A run
# stays correct when every failure is one of these.
KNOWN_DEFECTS = {
    "near_curve_tolerance": "within a relative 1e-6 of the existence curve, "
    "classify's absolute 1e-9 curve tolerance disagrees with the closed "
    "form's scaled kink tolerance",
    "cli_negative_exponent": "argparse takes a negative number in exponent "
    "notation (--d -1.5e+17) for an option flag, so cli classify exits 2",
}


class Checks:
    """Oracle outcomes. A failure is `known` when it is one of the
    KNOWN_DEFECTS; every other failure makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = {}
        self.details = []
        self.untyped = []

    def add(self, ok, what, known=None):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known:
            self.known[known] = self.known.get(known, 0) + 1
        if sum(d["known_defect"] == known for d in self.details) < 20:
            self.details.append({"check": what, "known_defect": known})

    @property
    def correct(self) -> bool:
        return self.failed == sum(self.known.values())


def _outcome_class(verdict) -> str:
    v = skew_tent.Verdict
    if verdict is v.OUTSIDE_REGION:
        return "outside"
    if verdict is v.ON_BIFURCATION_CURVE:
        return "curve"
    if verdict is v.EXISTS_STABLE:
        return "stable"
    return "unstable"


def _solver_class(sol, err, stable) -> str:
    if err is not None:
        return "outside" if isinstance(err, errors.NotAdmissibleError) else "error"
    if "0" in sol.sequence:
        return "curve"
    return "stable" if stable else "unstable"


def _check_verdict_vs_solver(checks, verdict, sol, err, near_curve, what,
                             stable=None):
    """Inside/on-curve verdicts go with an admissible closed form, a kink
    letter with OnBifurcationCurve, and a stable solution with ExistsStable.
    `stable` overrides `sol.stable` where only the x cycle is judged."""
    v_class = _outcome_class(verdict)
    s_class = _solver_class(sol, err, sol is not None and (
        sol.stable if stable is None else stable))
    known = near_curve and "curve" in (v_class, s_class)
    checks.add(v_class == s_class, f"{what}: verdict {v_class} vs solver {s_class}",
               known="near_curve_tolerance" if known else None)


def _scale(points) -> float:
    return max(1.0, max(float(np.max(np.abs(p))) for p in points))


def _hausdorff(P, Q) -> float:
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    diff = np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=2)
    return float(max(diff.min(axis=1).max(), diff.min(axis=0).max()))


def _contractive(rng, m, radius):
    A = rng.normal(size=(m, m))
    if m == 0:
        return A
    return A * (radius / np.max(np.abs(np.linalg.eigvals(A))))


def _strata(rng, count, dims):
    """Shape (count, dims): each column holds one draw from each of `count`
    equal slices of [0, 1), shuffled, so every seed gets the same mix of
    cheap and costly inputs and only the values within a slice vary."""
    cols = [(rng.permutation(count) + rng.uniform(size=count)) / count
            for _ in range(dims)]
    return np.column_stack(cols)


class BestTimes:
    """Seconds of each timed operation, one entry per pass.

    An operation's cost is its fastest pass (best of k). On a shared host
    interference only ever adds time, so the fastest of many passes is the
    steadiest estimate of what the code itself costs.
    """

    def __init__(self):
        self.times = {}

    def add(self, key, seconds):
        self.times.setdefault(key, []).append(seconds)

    def rate(self, units, keys) -> float:
        """Work units per second of the summed best times of `keys`."""
        total = sum(min(self.times[k]) for k in keys if k in self.times)
        return units / total if total else 0.0

    def passes(self, key) -> int:
        return len(self.times.get(key, ()))


def _untyped(err) -> str:
    return "".join(traceback.format_exception_only(type(err), err)).strip()


class Atlas:
    """Bulk classification of one cell-centred (a, d) grid, n = 3..9,
    plus the CLI's CSV export of a smaller grid for n = 3..5."""

    name = "atlas"

    def __init__(self, seed, size, workdir):
        cfg = SIZES[size]
        rng = np.random.default_rng(seed)
        g = cfg["atlas_grid"]
        self.spec = region_atlas.GridSpec(
            a_min=0.01 + rng.uniform(0, 0.005), a_max=3.0 - rng.uniform(0, 0.01),
            a_steps=g,
            d_min=-40.0 + rng.uniform(0, 0.1), d_max=-0.01 - rng.uniform(0, 0.005),
            d_steps=g, n_list=tuple(range(3, 10)),
        )
        c = cfg["atlas_csv_grid"]
        self.csv_spec = region_atlas.GridSpec(
            a_min=0.01 + rng.uniform(0, 0.005), a_max=3.0 - rng.uniform(0, 0.01),
            a_steps=c,
            d_min=-40.0 + rng.uniform(0, 0.1), d_max=-0.01 - rng.uniform(0, 0.005),
            d_steps=c, n_list=(3, 4, 5),
        )
        self.csv_path = os.path.join(workdir, "atlas.csv")
        s = self.csv_spec
        self.argv = [
            "scan", "--a-min", repr(s.a_min), "--a-max", repr(s.a_max),
            "--a-steps", str(s.a_steps), "--d-min", repr(s.d_min),
            "--d-max", repr(s.d_max), "--d-steps", str(s.d_steps),
            "--n", *map(str, s.n_list), "--out", self.csv_path,
        ]
        self.samples = cfg["atlas_samples"]
        self.sample_seed = int(rng.integers(2**63))
        self.cells = g * g * len(self.spec.n_list)
        self.rows = c * c * len(self.csv_spec.n_list)
        self.reset()

    def reset(self):
        self.best = BestTimes()
        self.grid = self.nesting = self.cli_exit = None

    def unit(self):
        t0 = time.perf_counter()
        self.grid = region_atlas.scan(self.spec)
        t1 = time.perf_counter()
        self.nesting = region_atlas.nesting_report(self.spec)
        t2 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            self.cli_exit = cli.main(self.argv)
        t3 = time.perf_counter()
        self.best.add("scan", t1 - t0)
        self.best.add("nesting", t2 - t1)
        self.best.add("csv", t3 - t2)

    def report(self) -> dict:
        cells = self.best.rate(self.cells, ("scan", "nesting"))
        rows = self.best.rate(self.rows, ("csv",))
        return {
            "primary_per_s": (cells, "1/s"),
            "secondary_per_s": (rows, "1/s"),
            "cells_per_s": (cells, "cells/s"),
            "csv_rows_per_s": (rows, "rows/s"),
            "samples": {"passes": self.best.passes("scan"),
                        "cells_per_pass": self.cells, "csv_rows_per_pass": self.rows},
        }

    def check(self) -> Checks:
        checks = Checks()
        checks.add(self.nesting["violations"] == [], "nesting_report violations")
        rng = np.random.default_rng(self.sample_seed)
        a_vals, d_vals = self.grid.a_values, self.grid.d_values
        k = self.samples
        for n in self.spec.n_list:
            cells = self.grid.cells[n]
            exists = cells != skew_tent.Verdict.OUTSIDE_REGION.value
            edge = np.zeros_like(exists)
            edge[:, 1:] |= exists[:, 1:] != exists[:, :-1]
            edge[:, :-1] |= exists[:, 1:] != exists[:, :-1]
            picks = [tuple(rng.integers(0, len(a_vals), 2)) for _ in range(k)]
            edge_idx = np.argwhere(edge)
            if len(edge_idx):
                picks += [tuple(edge_idx[i]) for i in
                          rng.integers(0, len(edge_idx), k)]
            for i, j in picks:
                a, d = float(a_vals[i]), float(d_vals[j])
                verdict = skew_tent.Verdict(cells[i, j])
                checks.add(verdict is skew_tent.classify(a, d, n).verdict,
                           "scan verdict vs pointwise classify")
                sys_ = cycle_solver.CanonicalSystem.from_skew_tent(
                    skew_tent.SkewTentParams(a, d, 1.0))
                try:
                    sol, err = cycle_solver.solve_cycle(sys_, n), None
                except TYPED_SOLVER_ERRORS as e:
                    sol, err = None, e
                _check_verdict_vs_solver(checks, verdict, sol, err, False,
                                         "atlas cell")
        checks.add(self.cli_exit == 0, "cli scan exit code")
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        expected = region_atlas.scan(self.csv_spec)
        got = {(r[0], r[1], r[2]): r[3] for r in rows[1:]}
        ok = rows[0] == ["a", "d", "n", "verdict"] and len(rows) - 1 == self.rows
        for n in self.csv_spec.n_list:
            for i, a in enumerate(expected.a_values):
                for j, d in enumerate(expected.d_values):
                    ok &= got.get((repr(float(a)), repr(float(d)), str(n))) == \
                        expected.cells[n][i, j]
        checks.add(ok, "cli scan CSV matches library scan")
        return checks


class Orbits:
    """Long orbits: a 1D bifurcation sweep with a period and band count
    per row, two long chaotic tails, and m > 0 trajectories."""

    name = "orbits"
    A = 0.4
    MU = 0.8

    def __init__(self, seed, size, workdir):
        cfg = self.cfg = SIZES[size]
        rng = np.random.default_rng(seed)
        # d sweeps NBandChaos/ExistsUnstable below -6.45, TwoNBandChaos
        # on (-6.45, -6.25) and ExistsStable on (-6.25, -3.5) for n = 3
        self.d_min = -7.0 + rng.uniform(-0.05, 0.05)
        self.d_max = -3.6 + rng.uniform(-0.05, 0.05)
        self.x0 = float(rng.uniform(0.1, 0.7))
        self.tails = []
        for d, bands in ((-6.5, 3), (-6.4, 6)):
            sys_ = cycle_solver.CanonicalSystem.from_skew_tent(
                skew_tent.SkewTentParams(self.A, d, self.MU))
            self.tails.append((sys_, bands, [float(rng.uniform(0.1, 0.7))]))
        self.systems = []
        for m in (3, 16):
            for _ in range(cfg["state_systems"]):
                self.systems.append(self._stable_system(rng, m))
        self.map_steps = (cfg["orbit_d_steps"] * cfg["orbit_steps"]
                          + len(self.tails) * cfg["tail_steps"])
        self.state_steps = len(self.systems) * cfg["state_steps"]
        self.reset()

    @staticmethod
    def _stable_system(rng, m, max_rate=0.9):
        """A system whose R L^(n-1) cycle attracts with 1D multiplier of
        modulus at most max_rate; returns (system, n)."""
        while True:
            n = int(rng.integers(3, 6))
            a = float(rng.uniform(0.2, 0.5))
            lo = a * float(skew_tent.geometric_sum(a, n - 1)) * 1.02
            if lo < max_rate - 0.05:
                break
        d = -float(rng.uniform(lo, max_rate)) / a ** (n - 1)
        sys_ = cycle_solver.CanonicalSystem(
            a, d, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
            _contractive(rng, m, rng.uniform(0.3, 0.7)), rng.uniform(-1, 1, m),
            float(rng.uniform(0.5, 1.5)),
        )
        return sys_, n

    def reset(self):
        self.best = BestTimes()
        self.rows = self.row_results = self.tail_results = None
        self.state_results = None

    def unit(self):
        cfg = self.cfg
        t0 = time.perf_counter()
        rows = simulator.bifurcation_scan(
            self.A, self.MU, self.d_min, self.d_max, cfg["orbit_d_steps"],
            steps=cfg["orbit_steps"], transient=cfg["orbit_transient"], x0=self.x0,
        )
        results = []
        for row in rows:
            orbit = simulator.Orbit(states=row["xs"].reshape(-1, 1),
                                    transient=cfg["orbit_transient"])
            results.append((simulator.detect_cycle(orbit),
                            simulator.band_count(orbit)))
        self.best.add("sweep", time.perf_counter() - t0)
        tails = []
        for k, (sys_, _, z0) in enumerate(self.tails):
            t0 = time.perf_counter()
            orbit = simulator.trajectory(sys_, steps=cfg["tail_steps"],
                                         transient=1_000, z0=z0)
            tails.append((simulator.detect_cycle(orbit),
                          simulator.band_count(orbit)))
            self.best.add(f"tail{k}", time.perf_counter() - t0)
        steps = cfg["state_steps"]
        states = []
        for k, (sys_, _) in enumerate(self.systems):
            t0 = time.perf_counter()
            orbit = simulator.trajectory(sys_, steps=steps, transient=steps - 500)
            states.append(simulator.detect_cycle(orbit))
            self.best.add(f"state{k}", time.perf_counter() - t0)
        self.rows, self.row_results, self.tail_results = rows, results, tails
        self.state_results = states

    def report(self) -> dict:
        mp = self.best.rate(self.map_steps, ["sweep"] + [
            f"tail{k}" for k in range(len(self.tails))])
        sp = self.best.rate(self.state_steps, [
            f"state{k}" for k in range(len(self.systems))])
        return {
            "primary_per_s": (mp, "1/s"),
            "secondary_per_s": (sp, "1/s"),
            "map_steps_per_s": (mp, "steps/s"),
            "state_steps_per_s": (sp, "steps/s"),
            "samples": {"passes": self.best.passes("sweep"),
                        "map_steps_per_pass": self.map_steps,
                        "state_steps_per_pass": self.state_steps},
        }

    def check(self) -> Checks:
        checks = Checks()
        steps = self.cfg["orbit_steps"]
        for row, (cycle, _) in zip(self.rows, self.row_results):
            d = row["d"]
            if row["diverged"]:
                checks.add(False, f"row d={d!r} diverged")
                continue
            if skew_tent.classify(self.A, d, 3).verdict is not \
                    skew_tent.Verdict.EXISTS_STABLE:
                continue
            # check only rows whose distance to the cycle has decayed
            # below 1e-9 of an O(100) start after `steps` map applications
            rate = abs(self.A**2 * d)
            if 100.0 * rate ** ((steps - 1) // 3) > 1e-9:
                continue
            xc = skew_tent.cycle_x_components(
                skew_tent.SkewTentParams(self.A, d, self.MU), 3)
            ok = (cycle is not None and cycle.period == 3
                  and _hausdorff(cycle.points, np.array(xc.xs)[:, None]) <= 1e-6)
            checks.add(ok, f"stable row d={d!r}: period and points vs closed form")
        for (_, bands, _), (cycle, counted) in zip(self.tails, self.tail_results):
            checks.add(cycle is None and counted == bands,
                       f"chaotic tail: {bands} bands and no cycle")
        for (sys_, n), cycle in zip(self.systems, self.state_results):
            sol = cycle_solver.solve_cycle(sys_, n)
            ok = (cycle is not None and cycle.period == n
                  and _hausdorff(cycle.points, np.asarray(sol.points)) <= 1e-6)
            checks.add(ok, f"m={sys_.m} trajectory cycle vs solve_cycle")
        return checks


class Queries:
    """A shuffled stream of single-point questions: canonical-system
    classify + solve_cycle, network local_cycle_analysis, and in-process
    CLI invocations."""

    name = "queries"

    def __init__(self, seed, size, workdir):
        cfg = SIZES[size]
        rng = np.random.default_rng(seed)
        self.ops = []
        for m, count in zip(SOLVE_MS, cfg["canonical_per_m"]):
            u = _strata(rng, count, 3)
            for k in range(count):
                self.ops.append(("canonical", self._canonical(
                    rng, m, *u[k], near_curve=k % 10 == 0)))
        count = cfg["networks"]
        u = _strata(rng, count, 2)
        for k in range(count):
            self.ops.append(("network", self._network(rng, 3 + k % 3, *u[k])))
        count = cfg["cli_per_kind"]
        u = _strata(rng, count, 3)
        for i in range(count):
            self.ops.append(("cli", self._cli_classify(*u[i])))
            self.ops.append(("cli", self._cli_cycle(rng, *u[i], workdir, i)))
            self.ops.append(("cli", self._cli_plrnn(rng, 3 + i % 3, *u[i, 1:],
                                                    workdir, i)))
            self.ops.append(("cli", self._cli_simulate(rng, workdir, i)))
        self.order = rng.permutation(len(self.ops))
        self.reset()

    @staticmethod
    def _point(u_n, u_a, u_d, near_curve=False, n_max=30):
        """(n, a, d) with n >= 3 weighted towards small n, a in (0.05, 1.5)
        and d on either side of the existence curve: within a relative
        1e-6 of it, down to a few ulps, when near_curve is set."""
        n = min(n_max, 2 + max(1, int(np.ceil(np.log1p(-u_n) / np.log1p(-0.22)))))
        a = 0.05 + 1.45 * u_a
        bound = skew_tent.existence_bound(a, n)
        if near_curve:
            sign = 1.0 if u_d < 0.5 else -1.0
            d = bound * (1.0 + sign * 10 ** (-15.3 + 9.3 * ((2 * u_d) % 1.0)))
        else:
            d = bound * float(np.exp(-0.7 + 1.4 * u_d))
        return n, float(a), float(d)

    @staticmethod
    def _canonical(rng, m, u_n, u_a, u_d, near_curve=False, n_max=30):
        n, a, d = Queries._point(u_n, u_a, u_d, near_curve, n_max)
        sys_ = cycle_solver.CanonicalSystem(
            a, d, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
            _contractive(rng, m, rng.uniform(0.3, 0.9)),
            rng.uniform(-1, 1, m), float(rng.uniform(0.2, 2.0)),
        )
        return {"sys": sys_, "n": n, "near_curve": near_curve}

    @staticmethod
    def _network_system(rng, n, u_M, u_d):
        """A relaxed-diagonal ReLU network whose boundary row s is clean,
        and an adjacent region pair across coordinate s."""
        M = 3 + int(6 * u_M)
        s = int(rng.integers(0, M))
        bits = [int(b) for b in rng.integers(0, 2, M)]
        A_diag = rng.uniform(0.1, 0.6, M)
        a = float(A_diag[s])
        d = skew_tent.existence_bound(a, n) * float(np.exp(-0.5 + u_d))
        W = rng.uniform(-0.3, 0.3, (M, M))
        W[s, :] = 0.0
        W[s, s] = d - a
        signs = np.where(np.array(bits) > 0, 1.0, -1.0)
        h = signs * rng.uniform(0.5, 2.0, M)
        h[s] = rng.uniform(0.2, 1.5)
        net = plrnn.PLRNNSystem(A_diag, W, h, relaxed_diagonal=True)
        lo, hi = list(bits), list(bits)
        lo[s], hi[s] = 0, 1
        pair = [lo, hi] if rng.random() < 0.5 else [hi, lo]
        return net, pair

    @staticmethod
    def _network(rng, n, u_M, u_d):
        net, pair = Queries._network_system(rng, n, u_M, u_d)
        return {"net": net, "n": n,
                "i": plrnn.RegionIndex.from_bits(pair[0]),
                "j": plrnn.RegionIndex.from_bits(pair[1])}

    @staticmethod
    def _cli_classify(u_n, u_a, u_d):
        n, a, d = Queries._point(u_n, u_a, u_d)
        return {"kind": "classify", "a": a, "d": d, "n": n,
                "argv": ["classify", "--a", repr(a), "--d", repr(d),
                         "--n", str(n), "--format", "json"]}

    @staticmethod
    def _write(workdir, name, system):
        path = os.path.join(workdir, name)
        config.write_config(path, system)
        return path

    @staticmethod
    def _cli_cycle(rng, u_n, u_a, u_d, workdir, i):
        q = Queries._canonical(rng, 3 * (i % 2), u_n, u_a, u_d, n_max=8)
        path = Queries._write(workdir, f"cycle{i}.json", q["sys"])
        return {"kind": "cycle", "path": path, "n": q["n"],
                "argv": ["cycle", "--config", path, "--n", str(q["n"])]}

    @staticmethod
    def _cli_plrnn(rng, n, u_M, u_d, workdir, i):
        net, pair = Queries._network_system(rng, n, u_M, u_d)
        path = Queries._write(workdir, f"net{i}.json", net)
        words = ["".join(map(str, p)) for p in pair]
        return {"kind": "plrnn", "path": path, "n": n, "pair": pair,
                "argv": ["plrnn", "--config", path, "--pair", *words,
                         "--n", str(n)]}

    @staticmethod
    def _cli_simulate(rng, workdir, i):
        sys_, n = Orbits._stable_system(rng, 0, max_rate=0.6)
        path = Queries._write(workdir, f"sim{i}.json", sys_)
        # start next to the attracting cycle: from other starts the orbit
        # can wander for longer than a short run before it is captured
        x1 = skew_tent.cycle_x_components(sys_.skew_params(), n).xs[0]
        x0 = x1 * (1.0 + 1e-6 * rng.uniform(-1, 1))
        return {"kind": "simulate", "path": path, "n": n, "sys": sys_, "x0": x0,
                "argv": ["simulate", "--config", path, "--steps", "400",
                         "--transient", "300", "--x0", repr(x0)]}

    def reset(self):
        self.results = {}
        self.best = BestTimes()
        self.query_us = []
        self.cli_us = []

    def _execute(self, kind, q):
        if kind == "canonical":
            verdict = skew_tent.classify(q["sys"].a, q["sys"].d, q["n"])
            try:
                return verdict, cycle_solver.solve_cycle(q["sys"], q["n"]), None
            except TYPED_SOLVER_ERRORS as err:
                return verdict, None, err
        if kind == "network":
            return plrnn.local_cycle_analysis(q["net"], q["i"], q["j"], q["n"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(q["argv"])
        return code, out.getvalue()

    def unit(self):
        """One pass over every operation, in the seeded order."""
        lib_us, cli_us = [], []
        for idx in self.order:
            kind, q = self.ops[idx]
            t0 = time.perf_counter()
            try:
                result = self._execute(kind, q)
            except Exception as err:  # an untyped error is a failed operation
                result = err
            elapsed = time.perf_counter() - t0
            (cli_us if kind == "cli" else lib_us).append(elapsed * 1e6)
            self.best.add(idx, elapsed)
            self.results[idx] = result
        self.query_us += lib_us
        self.cli_us += cli_us

    def report(self) -> dict:
        q = np.asarray(self.query_us)
        c = np.asarray(self.cli_us)
        lib = [i for i, (kind, _) in enumerate(self.ops) if kind != "cli"]
        calls = [i for i, (kind, _) in enumerate(self.ops) if kind == "cli"]
        qps = self.best.rate(len(lib), lib)
        cps = self.best.rate(len(calls), calls)
        pct = lambda x, p: float(np.percentile(x, p)) if len(x) else 0.0
        return {
            "primary_per_s": (qps, "1/s"),
            "secondary_per_s": (cps, "1/s"),
            "queries_per_s": (qps, "1/s"),
            "query_p50_us": (pct(q, 50), "us"),
            "query_p99_us": (pct(q, 99), "us"),
            "cli_p50_us": (pct(c, 50), "us"),
            "cli_p90_us": (pct(c, 90), "us"),
            "samples": {"passes": self.best.passes(0),
                        "queries": len(q), "cli_calls": len(c),
                        "queries_beyond_p99": int((q > pct(q, 99)).sum()),
                        "cli_beyond_p90": int((c > pct(c, 90)).sum())},
        }

    def check(self) -> Checks:
        checks = Checks()
        for idx, result in sorted(self.results.items()):
            kind, q = self.ops[idx]
            if isinstance(result, Exception):
                checks.untyped.append(_untyped(result))
                checks.add(False, f"{kind}: untyped error")
                continue
            getattr(self, f"_check_{kind}")(checks, q, result)
        return checks

    @staticmethod
    def _check_canonical(checks, q, result):
        verdict, sol, err = result
        sys_ = q["sys"]
        what = f"n={q['n']} m={sys_.m} near_curve={q['near_curve']}"
        _check_verdict_vs_solver(checks, verdict.verdict, sol, err,
                                 q["near_curve"], what)
        if sol is None:
            return
        tol = skew_tent.verify_tolerance(sys_.mu_hat) * _scale(sol.points)
        checks.add(sol.residual <= tol, f"{what}: residual {sol.residual!r}")
        sym = cycle_solver.solve_symbolic_cycle(sys_, sol.sequence)
        dev = max(float(np.max(np.abs(p - r))) for p, r in zip(sol.points, sym.points))
        checks.add(sym.admissible and dev <= tol,
                   f"{what}: solve_symbolic_cycle on {sol.sequence}")

    def _check_network(self, checks, q, report):
        can = report.localized.canonical
        err = report.solve_error
        if err is not None and not isinstance(err, TYPED_SOLVER_ERRORS):
            checks.add(False, "network: untyped solve error")
            return
        # the verdict judges the reduced x map; the block of the other
        # coordinates need not contract, so compare the x multiplier only
        sol = report.solution
        x_stable = sol is not None and abs(
            can.a ** (q["n"] - 1) * can.d) < 1.0
        _check_verdict_vs_solver(checks, report.classification.verdict,
                                 sol, err, False,
                                 f"network M={q['net'].M} n={q['n']}",
                                 stable=x_stable)
        if report.locality_ok:
            checks.add(_close_network_cycle(q["net"], report),
                       f"network M={q['net'].M}: cycle closes under relu_step")

    @staticmethod
    def _check_cli(checks, q, result):
        code, out = result
        lines = dict(line.split(": ", 1) for line in out.splitlines()
                     if ": " in line and not line.startswith(" "))
        kind = q["kind"]
        if kind == "classify":
            want = skew_tent.classify(q["a"], q["d"], q["n"])
            doc = json.loads(out) if code == 0 else {}
            rejected = code == 2 and "e" in repr(q["d"])
            checks.add(doc.get("verdict") == want.verdict.value
                       and doc.get("details") == want.details,
                       f"cli classify --d {q['d']!r} matches classify (exit {code})",
                       known="cli_negative_exponent" if rejected else None)
            return
        if kind == "cycle":
            system = config.read_config(q["path"])
            try:
                want = cycle_solver.solve_cycle(system, q["n"])
            except TYPED_SOLVER_ERRORS:
                checks.add(code == 3, "cli cycle exits 3 on a typed solver error")
                return
            checks.add(code == 0 and lines.get("sequence") == want.sequence,
                       "cli cycle sequence matches solve_cycle")
            return
        if kind == "plrnn":
            net = config.read_config(q["path"])
            i, j = (plrnn.RegionIndex.from_bits(p) for p in q["pair"])
            want = plrnn.local_cycle_analysis(net, i, j, q["n"])
            checks.add(code == 0 and lines.get("classification")
                       == want.classification.verdict.value
                       and lines.get("sequence") == (
                           want.solution.sequence if want.solution else None),
                       "cli plrnn matches local_cycle_analysis")
            return
        orbit = simulator.trajectory(q["sys"], steps=400, transient=300,
                                     z0=[q["x0"]])
        cycle = simulator.detect_cycle(orbit)
        checks.add(code == 0 and cycle is not None and cycle.period == q["n"]
                   and lines.get("period") == str(q["n"])
                   and lines.get("bands") == str(simulator.band_count(orbit)),
                   "cli simulate period matches the closed-form cycle length")


def _close_network_cycle(net, report) -> bool:
    """Map the reduced cycle back to network coordinates and step it with
    relu_step: every step must land on the next point, and n steps close."""
    loc = report.localized
    points = [loc.to_original_state(p) for p in report.solution.points]
    tol = skew_tent.verify_tolerance(loc.canonical.mu_hat) * _scale(points)
    n = len(points)
    z = points[0]
    worst = 0.0
    for k in range(1, n + 1):
        z = plrnn.relu_step(net, z)
        worst = max(worst, float(np.max(np.abs(z - points[k % n]))))
    return worst <= tol


WORKLOADS = {w.name: w for w in (Atlas, Orbits, Queries)}
