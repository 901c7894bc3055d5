"""heunx benchmark: CLI wall time per call, digits against mpmath, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; heunx is imported from `src/`. Each workload
drives `heunx.cli.main(argv)` in this process, with no threads, as a closed
loop with one caller: every call starts when the previous one returned.
Calls read real parameter files, their stdout is captured, and every output
is checked against the 40-digit references of `reference.py`.

--trace 0 times every call with tracing off and prints the end-to-end
metrics. --trace 1 runs every call twice, untraced and then traced, and
prints the per-layer metrics and the tracing overhead. A readable report of
every figure goes to stderr and to `.perfbench/`; the last line of stdout
is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import pickle
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402

GRID = [float(z) for z in np.linspace(-0.9, 0.9, 41)]
REDUCE_ORDERS = range(7)
REDUCE_ROWS = 50         # three-term rows checked per returned case
REDUCE_TOL = 1e-9        # equal to heunx's VERIFY_TOL: defect over summand scale
EVAL_TOL = 1e-7          # equal to the default --cross-tol of `heunx verify`
FLOOR_SHARE = 1e-3       # error denominators floored at this share of max|reference|
COEFF_TERMS = 5000       # c_0..c_5000 per `coeffs` call
COEFF_TOL = 1e-9
FORCED_TOL = 1e-7
CLOSED_REPEATS = 6       # timings of each N <= 2 `reduce` call per general call
JITTER = 1e-6            # seed perturbation of each panel parameter
SETUP_REPEATS = 9
REFERENCE_TIMEOUT = 120  # s for one batch of references

# The host's speed moves by up to half between seconds and between minutes
# (a fixed Python loop runs in 1.9 ms in one second and 2.9 ms in the next).
# Every timed call therefore also times `spin`, a fixed loop like heunx's
# pure-numpy kernels: BRACKET times before the call, every SPIN_PERIOD
# seconds during it (on SIGALRM, its own time taken out of the call's) and
# BRACKET times after; a short call also takes the samples before it, up to
# WINDOW in all. The benchmark runs pinned to one CPU, so the loop
# times the CPU the call runs on, a child process's included. A call's time
# is its wall time scaled by SPIN_REF over the mean loop time: seconds on a
# host where `spin` takes SPIN_REF. On a 2-vCPU Xeon at 2.0 GHz this cut the
# spread of one 4-second `eval` call from 4-15% to 2-3%. Raw wall times are
# reported beside the scaled ones.
SPIN_ITERATIONS = 500
SPIN_REF = 3.2e-4
SPIN_PERIOD = 0.02
BRACKET = 5              # samples before and after each call
WINDOW = 200             # fewest samples a call's speed is taken over


def _ratio(a, b, c, z, m):
    t = (a + m) * (b + m) * z / ((c + m) * (m + 1.0))
    return t, abs(t)


def spin() -> float:
    """Terms of a hypergeometric series, one small call per term as in the
    kernels; of the loops tried this one tracked `eval` times best."""
    s, term = 0.0, 1.0
    for m in range(SPIN_ITERATIONS):
        ratio, size = _ratio(0.5, 1.5, 2.5, 0.9, m)
        term *= ratio
        s += term
        if size * abs(term) < 1e-100:
            term = 1.0
    return s


class SpeedProbe:
    """Times calls and scales them by the host speed measured around them."""

    def __init__(self):
        self._samples = []       # the latest `spin` times, this call's last
        self._cost = 0.0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        spin()
        t1 = time.perf_counter()
        self._samples.append(t1 - t0)
        self._cost += time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self._sample()

    def timed(self, fn, ticks: bool = True):
        """(result, wall seconds, scaled seconds) of fn(). Without `ticks` no
        sample is taken while fn runs, and the samples before it count."""
        n0 = len(self._samples)
        for _ in range(BRACKET):
            self._sample()
        self._cost = 0.0
        if ticks:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SPIN_PERIOD, SPIN_PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0 - self._cost
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        for _ in range(BRACKET):
            self._sample()
        # a short call takes the speed of the last WINDOW samples, which few
        # samples of its own would make noisier; the mean weighs fast and slow
        # spells by their time, as wall time does; interrupted samples are out
        recent = self._samples[-max(WINDOW, len(self._samples) - n0):]
        median = statistics.median(recent)
        speed = statistics.fmean(x for x in recent if x <= 2.0 * median)
        del self._samples[:-WINDOW]
        return result, wall, wall * SPIN_REF / speed


def invoke(argv: list):
    """heunx.cli.main(argv) with stdout and stderr captured: (code, out, err).
    The code is None when the call raised."""
    import heunx.cli as cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:   # a crash is a failed operation, reported by the caller
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class CheckFailed(Exception):
    """A program output disagreed with the reference."""


def draw(rng: random.Random) -> tuple:
    """(a, alpha, beta, gamma) with a in +-[1.5, 3] and the rest in [-3, 3]."""
    a = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0)
    return (a, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))


class Bench:
    """Calls, checks and measurements of one run."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.rng = random.Random(seed)
        self.probe = SpeedProbe()
        self.tracer = None       # set once the panel is prepared, when tracing
        self.attempted = self.failed = 0
        self.correct = True
        self.notes = []
        self.calls = {}          # kind -> [(wall s, scaled s)] of every timed call
        self.job_calls = None    # (kind, argv) -> [(wall s, scaled s)] in this job
        self.jobs = {}           # job label -> [{kind or "job": scaled s, "wall " + same: wall s}]
        self.digits = {}         # label -> worst digits seen
        self.sweep_cases = []    # certified cases per reduce sweep
        self.case_digits = []    # three-term digits of each certified case
        self.untraced_s = self.traced_s = 0.0
        self.stdout_bytes = 0
        self._files = {}
        self._outputs = {}       # (kind, argv) -> (exit code, stdout digest) of its first call
        self._cases = {}         # argv of a `reduce` call -> its checked cases

    # -- calling the program ------------------------------------------------

    def write_params(self, data: dict) -> str:
        """A parameter file holding `data`; equal contents share one file."""
        text = json.dumps(data)
        if text not in self._files:
            path = OUT / f"params-{self.workload}-{len(self._files)}.json"
            path.write_text(text, encoding="utf-8")
            self._files[text] = str(path.relative_to(ROOT))
        return self._files[text]

    def call(self, kind: str, argv: list, ok=(0,)):
        """Run one CLI call; returns (exit code, stdout, first time in this run).

        An exit code outside `ok` or an exception is a failed operation, and
        so is a call that prints other bytes than it did before. When
        tracing, the call then runs once more, traced, so both see the same
        machine state and their gap is the tracing overhead."""
        key = (kind, tuple(argv))
        gc.collect()     # the benchmark's own garbage is not the call's
        (code, out, err), wall, scaled = self.probe.timed(lambda: invoke(argv))
        self.attempted += 1
        self.calls.setdefault(kind, []).append((wall, scaled))
        if self.job_calls is not None:
            self.job_calls.setdefault(key, []).append((wall, scaled))
        digest = (code, hashlib.sha256(out.encode()).hexdigest())
        first = key not in self._outputs
        if first:
            self._outputs[key] = digest
            if code not in ok:
                self.fail(f"{kind}: exit {code}: {err.strip()[-300:]}")
        elif self._outputs[key] != digest:
            self.fail(f"{kind}: a repeated call printed other output", wrong_output=True)
        if self.tracer is not None:
            gc.collect()
            self.tracer.install()
            try:
                # no samples inside the spans: they would count as the program's
                traced, _, traced_scaled = self.probe.timed(lambda: invoke(argv),
                                                            ticks=False)
            finally:
                self.tracer.uninstall()
            self.traced_s += traced_scaled
            self.untraced_s += scaled
            self.stdout_bytes += len(out.encode())
            if traced[:2] != (code, out):
                self.fail(f"{kind}: the traced call printed other output", wrong_output=True)
        return code, out, first

    def fail(self, note: str, wrong_output: bool = False) -> None:
        self.failed += 1
        if wrong_output:
            self.correct = False
        if len(self.notes) < 20:
            self.notes.append(note)

    def checked(self, check, *args) -> bool:
        """Apply an output check; a mismatch is a failed, incorrect operation."""
        try:
            check(*args)
            return True
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            self.fail(f"check {check.__name__}: {type(exc).__name__}: {exc}",
                      wrong_output=True)
            return False

    def note_digits(self, label: str, value: float) -> None:
        self.digits[label] = min(self.digits.get(label, math.inf), value)

    def run_job(self, label: str, job, *args) -> None:
        """One job. A call's time is the median of its repeats in the job, a
        kind's time the mean over its calls and the job's time their sum."""
        self.job_calls = {}
        job(self, *args)
        record = {}
        for i, clock in ((1, ""), (0, "wall ")):
            per_kind = {}
            for (kind, _), times in self.job_calls.items():
                per_kind.setdefault(kind, []).append(statistics.median(t[i] for t in times))
            record.update({clock + kind: statistics.fmean(v) for kind, v in per_kind.items()})
            record[clock + "job"] = sum(sum(v) for v in per_kind.values())
        self.jobs.setdefault(label, []).append(record)
        self.job_calls = None

    # -- reduce -------------------------------------------------------------

    def reduce(self, point: tuple, n_case: int) -> list:
        """`reduce --n N` at a draw; returns its checked cases, empty on exit 3
        and on a failure. A repeated call is only compared with the first."""
        a, al, be, ga = point
        path = self.write_params({"a": a, "alpha": al, "beta": be, "gamma": ga,
                                  "epsilon": 1.0 + al + be - ga - (n_case + 2.0)})
        kind = "reduce.closed" if n_case <= 2 else "reduce.general"
        argv = ["reduce", "--params", path, "--n", str(n_case)]
        code, out, first = self.call(kind, argv, ok=(0, 3))
        if first:
            cases = []
            if code in (0, 3) and not self.checked(self._check_reduce, code, out, point,
                                                   n_case, cases):
                cases = []
            self._cases[tuple(argv)] = cases
        return self._cases[tuple(argv)]

    def _check_reduce(self, code, out, point, n_case, cases):
        # the general search reports exit 3 on stderr alone
        payload = json.loads(out) if out or code != 3 else {"cases": []}
        if (code == 0) != bool(payload["cases"]):
            raise CheckFailed(f"exit {code} with {len(payload['cases'])} cases")
        for item in payload["cases"]:
            e = tuple(float(x) for x in item["e"])
            if item["N"] != n_case or len(e) != n_case or item["report"]["passed"] is not True:
                raise CheckFailed(f"malformed case {item}")
            case = ref.Case(point[0], float(item["q"]), point[1], point[2], point[3], e)
            worst = max(ref.three_term_rows(case, REDUCE_ROWS))
            if not worst <= REDUCE_TOL:
                raise CheckFailed(f"N={n_case} q={case.q!r}: three-term defect {worst:.2e}")
            self.case_digits.append(ref.digits(worst))
            cases.append(case)

    def sweep(self, point: tuple, orders) -> list:
        """`reduce` at each order in turn; returns every certified case."""
        found = [c for n_case in orders for c in self.reduce(point, n_case)]
        self.sweep_cases.append(len(found))
        return found

    def case_args(self, case) -> list:
        # argparse reads `--e -1.6` as an option, so lists go as `--e=...`
        return ["--params", self.write_params(case.params()),
                "--e=" + ",".join(repr(e) for e in case.e)]

    # -- eval ---------------------------------------------------------------

    def eval(self, case, fmt: str, want) -> None:
        grid = GRID[:]
        self.rng.shuffle(grid)
        argv = ["eval", *self.case_args(case), "--z=" + ",".join(map(repr, grid)),
                "--format", fmt]
        code, out, first = self.call("eval." + fmt, argv)
        if code == 0 and first:
            self.checked(self._check_eval, fmt, out, grid, want)

    def _check_eval(self, fmt, out, grid, want):
        if fmt == "csv":
            lines = out.strip().split("\n")
            if lines[0] != "z,u,du,ddu,residual,terms_used":
                raise CheckFailed(f"csv header {lines[0]!r}")
            rows = [line.split(",") for line in lines[1:]]
            zs = [float(r[0]) for r in rows]
            got = [[float(r[k]) for r in rows] for k in (1, 2, 3)]
            terms = [int(r[5]) for r in rows]
        else:
            rows = json.loads(out)["rows"]
            zs = [r["z"] for r in rows]
            got = [[float(r[k]) for r in rows] for k in ("u", "du", "ddu")]
            terms = [int(r["terms_used"]) for r in rows]
            if any(r["status"] not in ("Converged", "MaxTermsReached") for r in rows):
                raise CheckFailed("unknown status")
        if zs != grid or min(terms) < 1:
            raise CheckFailed("z column or terms_used malformed")
        order = [GRID.index(z) for z in zs]
        for label, values, ref_values in zip(("u", "du", "ddu"), got, want):
            errors = ref.floored_rel_errors(values, [ref_values[i] for i in order],
                                            FLOOR_SHARE)
            worst = max(errors)
            if not worst <= EVAL_TOL:
                z = zs[errors.index(worst)]
                raise CheckFailed(f"{fmt} {label} at z={z!r}: relative error {worst:.2e}")
            self.note_digits("eval.digits_" + label, ref.digits(worst))

    # -- coeffs and verify ----------------------------------------------------

    def coeffs(self, case, source: str, fmt: str, want) -> None:
        argv = ["coeffs", *self.case_args(case), "--n-max", str(COEFF_TERMS),
                "--source", source, "--format", fmt]
        if source == "three-term":
            argv = [x for x in argv if not x.startswith("--e=")]
        code, out, first = self.call("coeffs", argv)
        if code == 0 and first:
            self.checked(self._check_coeffs, source, fmt, out, want)

    def _check_coeffs(self, source, fmt, out, want):
        if fmt == "csv":
            lines = out.strip().split("\n")
            if lines[0] != "n,c_n,ratio,residual":
                raise CheckFailed(f"csv header {lines[0]!r}")
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        else:
            rows = np.array([[r["n"], r["c_n"], _nan(r["ratio"]), _nan(r["residual"])]
                             for r in json.loads(out)["rows"]], dtype=float)
        if rows.shape != (COEFF_TERMS + 1, 4) or np.any(rows[:, 0] != np.arange(COEFF_TERMS + 1)):
            raise CheckFailed(f"{source} {fmt}: table shape {rows.shape}")
        floor = FLOOR_SHARE * np.max(np.abs(want))
        err = np.abs(rows[:, 1] - want) / np.maximum(np.abs(want), floor)
        ratio_err = np.abs(rows[1:, 2] - want[1:] / want[:-1]) / np.abs(want[1:] / want[:-1])
        worst = max(float(np.max(err)), float(np.max(ratio_err)))
        if not worst <= COEFF_TOL:
            raise CheckFailed(f"{source} {fmt}: c_n relative error {worst:.2e}")
        if not np.all(rows[2:, 3] <= REDUCE_TOL):
            raise CheckFailed(f"{source} {fmt}: residual column above {REDUCE_TOL}")
        self.note_digits("certify.coeff_digits", ref.digits(worst))

    def verify(self, case) -> None:
        # `verify` exits 3 for a generic (non-terminating) case by design; the
        # gate is on its checks, not on its exit code
        code, out, first = self.call("verify", ["verify", *self.case_args(case)], ok=(0, 3))
        if code in (0, 3) and first:
            self.checked(self._check_verify, case, out)

    def _check_verify(self, case, out):
        payload = json.loads(out)
        checks = payload["checks"]
        if payload["params"] != case.params() or tuple(payload["e"]) != case.e:
            raise CheckFailed("verify echoed other parameters")
        if not (checks["recurrence_residual"]["passed"] and checks["collocation"]["passed"]):
            raise CheckFailed(f"verify rejects an accepted case: {checks}")
        forced = checks["forced_residual"]["values"]
        if len(forced) != 3 or not max(forced) <= FORCED_TOL:
            raise CheckFailed(f"forced residual {forced}")
        self.note_digits("certify.forced_digits", ref.digits(max(forced)))


def _nan(x):
    return math.nan if x is None else x


# -- workloads ----------------------------------------------------------------
#
# Each workload has a fixed panel of jobs: reduce-sweep and certify draw
# theirs once from the stated box, eval-grid takes two fixed cases. A job
# takes seconds, so one run cannot average over enough fresh draws for its
# figures to repeat from seed to seed; the seed instead perturbs every drawn
# parameter by up to JITTER and orders the grid points. The eval-grid cases
# are not perturbed: whether a grid point runs to 10,001 terms turns on
# rounding noise in the tail test, and each such point costs 0.6 s or more.

def panel_draws(workload: str, count: int, seed: int) -> list:
    base = random.Random(f"{workload}-panel")
    rng = random.Random(seed)
    return [tuple(x + rng.uniform(-JITTER, JITTER) for x in draw(base))
            for _ in range(count)]


def prepare_reduce_sweep(bench: Bench) -> list:
    point = panel_draws("reduce-sweep", 1, bench.seed)[0]
    return [("draw-0", job_reduce_sweep, point)]


def job_reduce_sweep(bench: Bench, point: tuple) -> None:
    """The sweep N = 0..6. A closed-form call takes milliseconds, so each is
    timed again after every general call: its samples then spread over the
    sweep instead of catching one moment of the host."""
    found = []
    for n_case in REDUCE_ORDERS:
        found += bench.reduce(point, n_case)
        for _ in range(CLOSED_REPEATS if n_case >= 3 else 0):
            for closed in range(3):
                bench.reduce(point, closed)
    bench.sweep_cases.append(len(found))


# the N = 0 anchor (u = 3/(1-z)) and the N = 2 case of benchmarks/bench_kernels.py
EVAL_DRAWS = (("anchor", (2.0, 3.0, 2.0, 1.0), 0), ("bench-n2", (2.0, 2.5, 1.7, 0.6), 2))


def prepare_eval_grid(bench: Bench) -> list:
    found = []
    for label, point, n_case in EVAL_DRAWS:
        cases = bench.sweep(point, [n_case])
        if cases:
            found.append((label, cases[0]))
        else:
            bench.fail(f"{label}: no N={n_case} case", wrong_output=True)
    wants = references("grid_values", [(case, GRID) for _, case in found])
    return [(label, job_eval_grid, case, want) for (label, case), want in zip(found, wants)]


def job_eval_grid(bench: Bench, case, want) -> None:
    bench.eval(case, "csv", want)
    bench.eval(case, "json", want)


CERTIFY_DRAWS = 3


def prepare_certify(bench: Bench) -> list:
    found = [(f"draw-{i}-case-{k}", case)
             for i, point in enumerate(panel_draws("certify", CERTIFY_DRAWS, bench.seed))
             for k, case in enumerate(bench.sweep(point, range(3)))]
    wants = [np.array(w) for w in references(
        "coefficient_floats", [(case, COEFF_TERMS) for _, case in found])]
    return [(label, job_certify, case, want) for (label, case), want in zip(found, wants)]


def job_certify(bench: Bench, case, want) -> None:
    for source in ("closed", "ratio", "three-term"):
        for fmt in ("csv", "json"):
            bench.coeffs(case, source, fmt, want)
    bench.verify(case)


WORKLOADS = {
    # prepare, the job kinds behind light_call_s and heavy_call_s, digit labels
    "reduce-sweep": (prepare_reduce_sweep, "reduce.closed", "reduce.general",
                     ("reduce.digits",)),
    "eval-grid": (prepare_eval_grid, "eval.csv", "eval.json",
                  ("eval.digits_u", "eval.digits_du", "eval.digits_ddu")),
    "certify": (prepare_certify, "verify", "coeffs", ("certify.forced_digits",)),
}
JOB_NAMES = {"reduce-sweep": "reduce.sweep_s", "eval-grid": "eval.case_s",
             "certify": "certify.s"}


# -- measurement --------------------------------------------------------------

def measure(bench: Bench, jobs: list, seconds: float) -> None:
    """Jobs of the panel in turn, while half of the next one fits in
    `seconds`. Untraced, every job runs at least once; traced, one does."""
    start = time.perf_counter()
    last = {}
    i = 0
    while True:
        label, job, *args = jobs[i % len(jobs)]
        t0 = time.perf_counter()
        bench.run_job(label, job, *args)
        last[label] = time.perf_counter() - t0
        i += 1
        if bench.tracer is None and i < len(jobs):
            continue
        following = jobs[i % len(jobs)][0]
        estimate = last.get(following, statistics.fmean(last.values()))
        if time.perf_counter() - start + estimate / 2 > seconds:
            return


def per_job(bench: Bench, key: str) -> float:
    """Mean over the panel's jobs of the median over each job's runs, so a run
    that repeats some jobs more often than others weighs them all alike."""
    values = [statistics.median(r[key] for r in records if key in r)
              for records in bench.jobs.values()
              if any(key in r for r in records)]
    return statistics.fmean(values) if values else 0.0


def references(name: str, calls: list) -> list:
    """[reference.<name>(*args) for args in calls], computed in a fresh
    interpreter so that the mpmath work stays out of peak_rss_mb, the memory
    of the process that calls heunx. The child has ended when this returns."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          input=pickle.dumps([(name, args) for args in calls]),
                          capture_output=True, timeout=REFERENCE_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"reference.{name} failed:\n"
                           + proc.stderr.decode(errors="replace").strip()[-2000:])
    return pickle.loads(proc.stdout)


def setup_times(probe: SpeedProbe, env) -> tuple:
    """(scaled s, wall s) of fresh interpreters running `import heunx.cli`,
    and the stdout lines one printed."""
    scaled, wall, notice = [], [], 0
    for i in range(SETUP_REPEATS + 1):
        # no samples while the child runs: on the shared CPU it would wait
        # for them, and the switches would count as set-up time
        proc, dt, dt_scaled = probe.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import heunx.cli"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120), ticks=False)
        if proc.returncode != 0:
            raise RuntimeError(f"import heunx.cli failed: {proc.stderr.strip()}")
        if i:                      # the first one may be writing bytecode caches
            scaled.append(dt_scaled)
            wall.append(dt)
        notice = len(proc.stdout.splitlines())
    return scaled, wall, notice


def summary(samples) -> dict:
    """Median and tail of scaled and wall times, with the sample count."""
    out = {"n": len(samples)}
    for i, name in ((1, "scaled"), (0, "wall")):
        values = [s[i] for s in samples]
        tail = tr.tail_percentile(values)
        out[name] = {"median": statistics.median(values),
                     "tail": None if tail is None else {"percentile": tail[0],
                                                        "value": tail[1]}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (SRC / "heunx" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no heunx sources under {SRC}\n")
        return 2
    os.chdir(ROOT)
    # one CPU for this process and its children, so that `spin` always times
    # the CPU the measured work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    notice = io.StringIO()
    with contextlib.redirect_stdout(notice):     # import notices stay off stdout
        import heunx.cli
    if Path(heunx.cli.__file__).resolve().parent != SRC / "heunx":
        sys.stderr.write(f"perfbench: imported heunx from {heunx.cli.__file__}\n")
        return 2
    OUT.mkdir(exist_ok=True)

    prepare, light, heavy, digit_labels = WORKLOADS[ns.workload]
    bench = Bench(ns.workload, ns.seed)
    references("self_check", [(GRID,)])   # a broken reference stops the run here
    setup, setup_wall, notice_lines = setup_times(
        bench.probe, dict(os.environ, PYTHONPATH=str(SRC)))
    jobs = prepare(bench)
    if ns.trace:
        bench.tracer = tr.Tracer()
    if jobs:
        measure(bench, jobs, ns.seconds)
    if bench.case_digits:
        # the mean over cases: the worst one moves by a digit with the seed's jitter
        bench.digits["reduce.digits"] = statistics.fmean(bench.case_digits)
        bench.digits["reduce.worst_digits"] = min(bench.case_digits)
    if not (bench.jobs and all(k in bench.digits for k in digit_labels)):
        bench.correct = False
        bench.notes.append("no checked job completed; metrics read 0")

    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "job_s": (per_job(bench, "job"), "s"),
        "light_call_s": (per_job(bench, light), "s"),
        "heavy_call_s": (per_job(bench, heavy), "s"),
        "digits": (min(bench.digits.get(k, 0.0) for k in digit_labels), "digits"),
        "cases": (statistics.fmean(bench.sweep_cases) if bench.sweep_cases else 0.0,
                  "count"),
    }
    report = {
        "workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
        "jobs": sum(len(v) for v in bench.jobs.values()),
        "attempted": bench.attempted, "failed": bench.failed,
        "failed_share": bench.failed / max(bench.attempted, 1),
        JOB_NAMES[ns.workload]: per_job(bench, "job"),
        "calls": {kind + "_s": summary(v) for kind, v in sorted(bench.calls.items())},
        "setup_s": summary(list(zip(setup_wall, setup))),
        "digits": bench.digits, "cases_per_sweep": bench.sweep_cases,
        "cli.stdout_notice_lines": notice_lines, "notes": bench.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "wall": {"setup_s": statistics.median(setup_wall),
                 "job_s": per_job(bench, "wall job"),
                 "light_call_s": per_job(bench, "wall " + light),
                 "heavy_call_s": per_job(bench, "wall " + heavy)},
    }
    if ns.trace:
        n_jobs = report["jobs"]
        layers = tr.layer_metrics(bench.tracer, n_jobs)
        overhead = bench.traced_s - bench.untraced_s
        layers.update({
            "cli.stdout_bytes": bench.stdout_bytes / n_jobs,
            "cli.stdout_notice_lines": float(notice_lines),
            "trace.overhead_s": overhead / n_jobs,
            "trace.overhead_share": overhead / bench.untraced_s,
        })
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        report["layers"] = layers
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
        bench.tracer.dump(OUT / f"trace-{ns.workload}-{ns.seed}.json")
    else:
        metrics = report["metrics"]
    (OUT / f"report-{ns.workload}-{ns.seed}-{ns.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print_report(report, sys.stderr)
    sys.stdout.write(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                                 "failed": bench.failed, "metrics": metrics}) + "\n")
    return 0


def print_report(report: dict, stream) -> None:
    """Every measured figure by name with its unit, for a reader."""
    w = stream.write
    w(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
      f"{report['jobs']} jobs, {report['attempted']} calls, "
      f"failed_share {report['failed_share']:.4f}\n")
    w("  times: scaled s (wall s); median, then the highest percentile with ten "
      "samples beyond it\n")
    for name, s in [*report["calls"].items(), ("setup_s", report["setup_s"])]:
        tail = s["scaled"]["tail"]
        tail_txt = (f"p{tail['percentile']:.0f} {tail['value']:.4g} "
                    f"({s['wall']['tail']['value']:.4g})" if tail else "no tail (< 21 samples)")
        w(f"  {name:<24} median {s['scaled']['median']:.4g} "
          f"({s['wall']['median']:.4g}), {tail_txt}, n={s['n']}\n")
    for label, value in sorted(report["digits"].items()):
        w(f"  {label:<24} {value:.2f} digits\n")
    job_name = JOB_NAMES[report["workload"]]
    w(f"  {job_name:<24} {report[job_name]:.4g} s per job (scaled)\n")
    if report["cases_per_sweep"]:
        w(f"  {'reduce.cases':<24} {statistics.fmean(report['cases_per_sweep']):.4g} "
          "certified cases per reduce sweep\n")
    w(f"  {'cli.stdout_notice_lines':<24} {report['cli.stdout_notice_lines']}\n")
    w("  end-to-end metrics (wall s beside scaled s):\n")
    for name, m in report["metrics"].items():
        wall = report["wall"].get(name)
        w(f"    {name:<22} {m['value']:.6g} {m['unit']}"
          + ("" if wall is None else f" ({wall:.6g})") + "\n")
    for name, value in report.get("layers", {}).items():
        w(f"    {name:<34} {value:.6g}\n")
    for note in report["notes"]:
        w(f"  note: {note}\n")


if __name__ == "__main__":
    sys.exit(main())
