#!/usr/bin/env python3
"""screenguide benchmark: resonator sweeps, refinement solves and capacity BEM.

Run from the repository root::

    python3 bench/run.py --workload sweep-resonator --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table each

Each run imports the package from ``src/`` of the checkout, draws its inputs
from ``--seed``, times whole passes of the workload in a closed loop (one
caller, next call after the previous returns) until ``--seconds`` have
passed, checks the outputs and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run also makes one
traced pass (spans from ``bench/spans.py``) and reports per-layer metrics.
The exit code is 1 when an output check failed and 2 when the package
cannot be found.  See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

KAPPA = 0.8 * math.pi
DEFAULT_SEED = 1
REF_TOL = 1e-4           # R, T and L* against reference.json
REF_CAPA_RTOL = 1e-6     # capacities against reference.json, relative
SETUP_REPEATS = 3        # setup_s is the median of this many set-ups

sg = None  # the screenguide package, imported during set-up


def slit(center, width):
    """One aperture of ``width`` centred at ``center`` on a screen."""
    return ((center - 0.5 * width, center + 0.5 * width),)


def sweep_config(epsilon, n_steps):
    """The README's sweep/resonance config; only documented keys are used."""
    return sg.parse_config(f"""
[problem]
kappa = {KAPPA!r}
epsilon = {epsilon!r}

[geometry]
holes_left = 0.5:1
holes_right = 0.5:1

[mesh]
h = 0.04

[sweep]
L_min = 0.58
L_max = 0.70
n_steps = {n_steps}

[resonance]
bracket_lo = 0.64
bracket_hi = 0.72
tol = 1e-5
""")


def serial(cfg):
    """``cfg`` with the sweep pool off; a config without ``workers`` is serial."""
    if any(f.name == "workers" for f in dataclasses.fields(cfg)):
        return dataclasses.replace(cfg, workers=1)
    return cfg


def refinement_gap(geom):
    """|T(h 0.04) - T(h 0.02)| of one geometry."""
    coarse = sg.solve_scattering(geom, KAPPA, h=0.04)
    fine = sg.solve_scattering(geom, KAPPA, h=0.02)
    return abs(coarse.T - fine.T)


class Tally:
    """Counts operations and failures; a failure is a typed error or a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (sg.NumericalError, sg.BracketError, sg.UnsupportedRegimeError) as exc:
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message):
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)


def close(a, b, tol):
    return abs(complex(*a) - b) <= tol


# ----------------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------------

class SweepResonator:
    """README sweep (21 points, one process) then find-resonance.

    The sweep runs serially: with the default pool, the pass time spread
    25-43 s over ten seeds on 2 CPUs (quartile distance 0.29 of the median),
    wider than any bound the benchmark may set.  The traced run measures the
    pool against serial instead (``sweep.speedup``).
    """

    name = "sweep-resonator"

    def setup(self, rng):
        self.epsilon = rng.uniform(0.015, 0.025)
        self.cfg = sweep_config(self.epsilon, 21)
        geom = sg.WaveguideGeometry2D(0.64, 1.72, slit(0.5, self.epsilon),
                                      slit(0.5, self.epsilon))
        sg.solve_scattering(geom, KAPPA, h=0.04)  # warm-up

    def run_pass(self, tally):
        t0 = time.perf_counter()
        rows = sg.run_sweep(serial(self.cfg))
        t1 = time.perf_counter()
        res = tally.call("find_resonance", sg.find_resonance, self.cfg)
        t2 = time.perf_counter()
        tally.attempted += len(rows)
        for r in rows:
            if r.error:
                tally.fail(f"sweep row L={r.L:.6g}: {r.error}")
        return {"sweep_s": t1 - t0, "resonance_s": t2 - t1}, (rows, res)

    def check(self, passes, tally, reference):
        cfg = self.cfg
        budget = math.ceil(math.log((cfg.bracket_hi - cfg.bracket_lo) / cfg.tol)
                           / math.log(1.0 / 0.618)) + 3
        named = {}
        for rows, res in passes:
            ok_rows = [r for r in rows if not r.error]
            if ok_rows:
                resid = max(r.energy_residual for r in ok_rows)
                tally.check(resid <= 5e-3, f"sweep energy residual {resid:.3e} > 5e-3")
            if res is None:
                continue
            named = {"L_star": res.L_star, "resonance_evals": res.n_evaluations}
            tally.check(abs(res.T_at_star) >= 0.99,
                        f"|T(L*)| = {abs(res.T_at_star):.6f} < 0.99")
            tally.check(cfg.bracket_lo < res.L_star < cfg.bracket_hi,
                        f"L* = {res.L_star} not strictly inside the bracket")
            tally.check(res.n_evaluations <= budget,
                        f"{res.n_evaluations} evaluations > budget {budget}")
            if reference is not None:
                worst = max(max(abs(complex(*ref[1]) - r.R), abs(complex(*ref[2]) - r.T))
                            for ref, r in zip(reference["rows"], rows))
                tally.check(len(rows) == len(reference["rows"]) and worst <= REF_TOL,
                            f"sweep rows differ from reference by {worst:.3e}")
                tally.check(abs(res.L_star - reference["L_star"]) <= REF_TOL
                            and close(reference["T_star"], res.T_at_star, REF_TOL)
                            and close(reference["R_star"], res.R_at_star, REF_TOL),
                            "resonance differs from reference")
        geom = sg.WaveguideGeometry2D(0.70, 1.70, slit(0.5, 0.02), slit(0.5, 0.02))
        named["discretization_error"] = tally.call("refinement gap", refinement_gap, geom)
        return named

    def reference(self, passes):
        rows, res = passes[0]
        return {"rows": [[r.L, [r.R.real, r.R.imag], [r.T.real, r.T.imag]] for r in rows],
                "L_star": res.L_star,
                "T_star": [res.T_at_star.real, res.T_at_star.imag],
                "R_star": [res.R_at_star.real, res.R_at_star.imag]}


class RefineLayouts:
    """Four hole layouts, each solved at h 0.04 and h 0.02."""

    name = "refine-layouts"
    LAYOUTS = (
        ("centred", slit(0.5, 0.02), slit(0.5, 0.02)),
        ("paper-scale", slit(0.5, 1e-4), slit(0.5, 1e-4)),
        ("off-centre", slit(0.1, 0.02), slit(0.7, 0.02)),
        ("unequal", slit(0.5, 0.06), slit(0.5, 0.02)),
    )
    STEPS = (0.04, 0.02)

    def setup(self, rng):
        self.geoms = []
        for label, left, right in self.LAYOUTS:
            L = rng.uniform(0.58, 0.70)
            self.geoms.append((label, sg.WaveguideGeometry2D(L, L + 1.0, left, right)))
        sg.solve_scattering(self.geoms[0][1], KAPPA, h=0.04)  # warm-up

    def run_pass(self, tally):
        out = []
        t0 = time.perf_counter()
        for label, geom in self.geoms:
            for h in self.STEPS:
                r = tally.call(f"{label} h={h}", sg.solve_scattering, geom, KAPPA, h=h)
                out.append((label, h, r))
        return {"refine_s": time.perf_counter() - t0}, out

    def check(self, passes, tally, reference):
        named = {}
        for out in passes:
            gaps = []
            for (label, _, coarse), (_, _, fine) in zip(out[0::2], out[1::2]):
                if coarse is None or fine is None:
                    continue
                gap = abs(coarse.T - fine.T)
                gaps.append(gap)
                tally.check(gap <= 5e-3, f"{label}: refinement gap {gap:.3e} > 5e-3")
            if gaps:
                named["t_refine_gap"] = max(gaps)
            if reference is not None:
                for (label, h, r), ref in zip(out, reference["solves"]):
                    tally.check(r is not None and close(ref[2], r.R, REF_TOL)
                                and close(ref[3], r.T, REF_TOL),
                                f"{label} h={h}: R, T differ from reference")
        # criterion 4: analytic oracles of the empty guide and closed screens
        L = self.geoms[0][1].screen_half_distance
        empty = tally.call("empty guide", sg.solve_scattering,
                           sg.WaveguideGeometry2D(L, L + 1.0, None, None), KAPPA)
        if empty is not None:
            defect = abs(math.remainder(math.atan2(empty.T.imag, empty.T.real)
                                        - 2.0 * KAPPA * L, 2.0 * math.pi))
            tally.check(abs(abs(empty.T) - 1.0) < 2e-3 and defect < 1e-2,
                        f"empty guide |T| {abs(empty.T):.6f}, arg defect {defect:.2e}")
        closed = tally.call("closed screens", sg.solve_scattering,
                            sg.WaveguideGeometry2D(L, L + 1.0, (), ()), KAPPA)
        if closed is not None:
            tally.check(abs(abs(closed.R) - 1.0) < 2e-3 and abs(closed.T) <= 1e-10,
                        f"closed screens |R| {abs(closed.R):.6f}, |T| {abs(closed.T):.2e}")
        _, left, right = self.LAYOUTS[-1]
        geom = sg.WaveguideGeometry2D(0.70, 1.70, left, right)
        named["discretization_error"] = tally.call("refinement gap", refinement_gap, geom)
        return named

    def reference(self, passes):
        return {"solves": [[label, h, [r.R.real, r.R.imag], [r.T.real, r.T.imag]]
                           for label, h, r in passes[0]]}


class CapacityBEM:
    """Dense single-layer BEM: two disks and one seeded rectangle."""

    name = "capacity-bem"
    EXACT = 2.0 / math.pi

    def setup(self, rng):
        self.aspect = rng.uniform(1.0, 4.0)
        self.shapes = (("disk-1024", sg.CrackShape.disk(1.0), 1024),
                       ("rectangle-2048", sg.CrackShape.rectangle(self.aspect, 1.0), 2048),
                       ("disk-4096", sg.CrackShape.disk(1.0), 4096))
        sg.solve_capacity(sg.panelize(sg.CrackShape.disk(1.0), 256))  # warm-up

    def run_pass(self, tally):
        out = []
        t0 = time.perf_counter()
        for label, shape, n in self.shapes:
            panels = tally.call(f"{label} panelize", sg.panelize, shape, n)
            res = panels and tally.call(f"{label} solve", sg.solve_capacity, panels)
            out.append((label, panels, res))
        return {"capacity_s": time.perf_counter() - t0}, out

    def check(self, passes, tally, reference):
        named = {}
        for out in passes:
            for label, panels, res in out:
                if res is None:
                    continue
                cap = res.capacity
                if label.startswith("disk"):
                    rel = abs(cap - self.EXACT) / self.EXACT
                    if label == "disk-4096":
                        named["capa_rel_err"] = named["discretization_error"] = rel
                    tally.check(rel < 0.01, f"{label}: capacity error {rel:.3e} >= 1%")
                    tally.check(math.hypot(*res.dipole) < 1e-3 * cap,
                                f"{label}: centred disk has a dipole moment")
                else:
                    # monotone in the crack: inscribed disk < rectangle < circumscribed
                    hi = math.hypot(self.aspect, 1.0) / math.pi
                    tally.check(1.0 / math.pi < cap < hi,
                                f"{label}: capacity {cap} outside ({1 / math.pi}, {hi})")
            if reference is not None:
                for (label, _, res), ref in zip(out, reference["capacities"]):
                    tally.check(res is not None
                                and abs(res.capacity - ref[1]) <= REF_CAPA_RTOL * ref[1],
                                f"{label}: capacity differs from reference")
        return named

    def reference(self, passes):
        return {"capacities": [[label, res.capacity] for label, _, res in passes[0]]}


WORKLOADS = {w.name: w for w in (SweepResonator, RefineLayouts, CapacityBEM)}


# ----------------------------------------------------------------------------
# set-up, tracing and machine record
# ----------------------------------------------------------------------------

def set_up(workload_name, seed):
    """Import the package, build the inputs and warm up; returns (workload, s)."""
    global sg
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import screenguide
    sg = screenguide
    wl = WORKLOADS[workload_name]()
    wl.setup(random.Random(seed))
    return wl, time.perf_counter() - t0


def child_set_ups(args, n):
    """Set-up times of ``n`` fresh interpreters running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(n):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def composition_check(tally):
    """The stages called one by one give solve_scattering's amplitude_mid."""
    from screenguide import fem, meshing, scattering

    L = 0.65
    geom = sg.WaveguideGeometry2D(L, L + 1.0, slit(0.5, 0.02), slit(0.5, 0.02))
    whole = sg.solve_scattering(geom, KAPPA, h=0.04)
    basis = scattering.modal_rates(KAPPA, 15)
    mesh = meshing.build_mesh(geom, 0.04)
    system = fem.assemble(mesh, KAPPA)
    scattering.attach_dtn_and_rhs(system, mesh, basis, L)
    u = fem.solve_linear(system)
    amp = scattering.amplitude_at_center(mesh, u)
    rel = abs(amp - whole.amplitude_mid) / abs(whole.amplitude_mid)
    tally.check(rel <= 1e-12, f"composed stages give amplitude_mid off by {rel:.3e}")


def traced_run(wl, tally, untraced_walls):
    """One traced pass plus a probe of every layer; returns per-layer metrics."""
    from spans import Tracer

    probe_sweep = sweep_config(0.02, 6)
    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        wl.run_pass(tally)
        traced_wall = time.perf_counter() - t0
        composition_check(tally)
        sg.solve_capacity(sg.panelize(sg.CrackShape.disk(1.0), 256))
        t0 = time.perf_counter()
        sg.run_sweep(serial(probe_sweep))
        serial_sweep_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    t0 = time.perf_counter()
    sg.run_sweep(probe_sweep)  # default workers, untraced
    pool_sweep_s = time.perf_counter() - t0
    missing = tracer.missing_stages()
    tally.check(not missing, f"traced solves no longer call: {missing}")

    t = tracer
    solve = "scattering.solve_scattering"
    return {
        "meshing.build_s": (t.total("meshing.build_mesh"), "s"),
        "meshing.nodes": (t.count("meshing.build_mesh", "nodes"), "count"),
        "meshing.triangles": (t.count("meshing.build_mesh", "triangles"), "count"),
        "fem.assemble_s": (t.total("fem.assemble"), "s"),
        "fem.nnz": (t.count("fem.assemble", "nnz"), "count"),
        "fem.solve_s": (t.total("fem.solve_linear"), "s"),
        "scattering.dtn_s": (t.total("scattering.modal_rates")
                             + t.total("scattering.attach_dtn_and_rhs"), "s"),
        "scattering.dtn_nnz": (t.count("scattering.attach_dtn_and_rhs", "nnz"), "count"),
        "scattering.extract_s": (t.total("scattering.amplitude_at_center"), "s"),
        "scattering.self_s": (t.self_time(solve), "s"),
        "scattering.solves": (t.count(solve), "count"),
        "sweep.speedup": (serial_sweep_s / pool_sweep_s, "x"),
        "sweep.solves": (t.children_of("sweep.run_sweep", solve)
                         + t.children_of("sweep.find_resonance", solve), "count"),
        "sweep.resonance_evals": (t.count("sweep.find_resonance", "evaluations"), "count"),
        "capacity.panelize_s": (t.total("capacity.panelize"), "s"),
        "capacity.assemble_s": (t.total("capacity.assemble_system"), "s"),
        "capacity.solve_s": (t.self_time("capacity.solve_capacity"), "s"),
        "capacity.panels": (t.count("capacity.panelize", "panels"), "count"),
        "trace.overhead_s": (traced_wall - statistics.median(untraced_walls), "s"),
    }


def blas_info():
    """BLAS library name/version and its thread count, where it can be read."""
    import ctypes
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return name, threads


def machine_info():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    blas, threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": commit or "unknown",
    }


def peak_rss_mb():
    """Larger of this process's and its largest waited-for child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# ----------------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------------

def load_reference(name, seed):
    """The stored outputs of workload ``name``, if they were made at ``seed``."""
    data = json.loads(REFERENCE.read_text())
    return data[name] if data["seed"] == seed else None


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(args):
    wl, setup_main = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    setups = [setup_main]
    if not args.trace and not args.write_reference:
        setups += child_set_ups(args, SETUP_REPEATS - 1)

    tally = Tally()
    passes, phases = [], []
    t_start = time.perf_counter()
    while True:
        times, out = wl.run_pass(tally)
        passes.append(out)
        phases.append(times)
        if time.perf_counter() - t_start >= args.seconds:
            break

    if args.write_reference:
        data = json.loads(REFERENCE.read_text())
        if data["seed"] != args.seed:
            data = {"seed": args.seed}
        data[wl.name] = wl.reference(passes)
        REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {wl.name} reference for seed {args.seed} to {REFERENCE}")
        return 0

    reference = load_reference(wl.name, args.seed)
    named = wl.check(passes, tally, reference)
    walls = [sum(p.values()) for p in phases]
    medians = {k: statistics.median(p[k] for p in phases) for k in phases[0]}

    print(f"workload {wl.name}, seed {args.seed}: {len(passes)} pass(es), "
          f"wall medians over passes")
    for k, v in {**medians, **named}.items():
        print(f"  {k:28s} {fmt(v)} {'s' if k.endswith('_s') else ''}")

    if args.trace:
        layers = traced_run(wl, tally, walls)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "discretization_error": {"value": named.get("discretization_error"),
                                     "unit": "1"},
        }
    for k, m in metrics.items():
        print(f"  {k:28s} {fmt(m['value'])} {m['unit']}")
    print("machine: " + json.dumps(machine_info()))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Run every workload in its own interpreter and summarise."""
    status, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = m
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "screenguide" / "__init__.py").is_file():
        print(f"screenguide sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
