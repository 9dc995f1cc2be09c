"""proctensor benchmark: one workload per run, timed end to end.

    python3 perfbench/run.py --workload {tomo,tomo_io,survey,exact} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (the package is loaded from ``src``; it
need not be installed). One run:

- runs one untimed warm-up op, then ops one after another in this
  process for ``--seconds`` seconds in total, checking every output;
- times ``SAMPLES`` fresh interpreters that import proctensor and build
  the workload's inputs (``setup_s``, median);
- runs the workload's CLI commands (``python -m proctensor.cli ...``)
  ``SAMPLES`` times as subprocesses and compares their JSON with
  ``cli_reference.json`` (``cli_s_p50``, median).

The setup probes and CLI samples are spread over the op loop.

With ``--trace 1`` every op runs twice, untraced and then under the
outside-in tracer (tracer.py); the two must return identical outputs,
and the per-layer numbers come from the traced copies.

The second-to-last stdout line is a JSON report (op counts, p90, failure
messages, byte identity of the CLI output, machine and BLAS info). The
last line is the result: {"correct", "attempted", "failed", "metrics"}.
No threads are started; OpenBLAS keeps its default thread count.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SAMPLES = 5  # setup probes and CLI samples per run
CLI_TIMEOUT_S = 60
CLI_TOL = 1e-9
P90_MIN_OPS = 100  # p90 is reported only with >= 10 samples beyond it
LAYERS = ("linalg", "states", "process", "instruments", "memory",
          "recovery", "walk", "tomography", "cli")
# the per-layer functions reported by a traced run (every public function
# is traced; these are the ones named in BENCHMARK.json)
LAYER_FUNCTIONS = {
    "tomography": ("simulate_counts", "reconstruct", "inversion_matrix",
                   "bootstrap", "resample_counts", "simplex_projection",
                   "product_settings", "counts_to_csv", "counts_from_csv"),
    "memory": ("projective_survey", "non_markovianity",
               "non_markovianity_choi", "memory_strength",
               "markov_order_test", "mutual_information", "quantum_cmi",
               "quantum_cmi_choi"),
    "process": ("build_common_cause", "condition", "condition_instrument",
                "born_probability", "check_causality",
                "cp_divisibility_check", "marginals", "markov_product"),
    "instruments": ("dual_frame", "gram_matrix"),
    "recovery": ("recover", "deviation_scan"),
    "walk": ("extract_povm", "run_protocol", "apply_coins",
             "port_probabilities", "align_frames"),
    "linalg": ("von_neumann_entropy", "relative_entropy", "partial_trace",
               "fidelity", "trace_distance", "check_density", "kron"),
    "states": ("state_by_name",),
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "PROCTENSOR_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(args, cwd) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python -m proctensor.cli *args`` in cwd; (wall s, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "proctensor.cli", *args],
                          cwd=cwd, env=child_env(), capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0, proc


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .perfbench_tmp in the checkout, removed after."""
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    path = tempfile.mkdtemp(dir=tmp_root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(tmp_root)


def json_mismatch(got, want, tol, path="$"):
    """Path of the first difference, numbers compared within tol."""
    if isinstance(got, bool) or isinstance(want, bool):
        return None if got is want else path
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        return None if abs(got - want) <= tol else path
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return path
        for k in want:
            bad = json_mismatch(got[k], want[k], tol, f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            bad = json_mismatch(g, w, tol, f"{path}[{i}]")
            if bad:
                return bad
        return None
    return None if got == want else path


def probe(args) -> tuple[float, str]:
    """Run probe.py in a fresh interpreter; (wall s, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"),
                           *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def git_commit() -> str | None:
    """HEAD commit read from .git, without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
    }


class Run:
    """One run's closed op loop, CLI samples and failure count.

    attempted and failed count in-process ops (traced copies included)
    and CLI commands.
    """

    def __init__(self, w, shared, seed, tracer=None):
        self.w, self.shared, self.seed, self.tracer = w, shared, seed, tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.plain, self.traced = [], []  # op wall seconds
        self.completed = 0  # untraced ops that passed their checks
        self.loop_s = 0.0  # wall seconds spent in the op loop
        self.next_op = 1  # op 0 is the warm-up

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(msg)

    def op(self, x):
        """One checked op: (wall s, outputs or None on failure)."""
        import workloads
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.w.op(self.shared, x)
        except workloads.CheckError as exc:
            out = None
            self.fail(f"check: {exc}")
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = None
            self.fail(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, out

    def warmup(self) -> None:
        if self.w.pinned is None:
            self.op(self.w.make(self.shared, self.seed, 0))
            return
        x, want = self.w.pinned
        _, out = self.op(x)
        if out is not None and out != want:
            self.fail(f"pinned op returned {out}, expected {want}")

    def loop_until(self, loop_s: float) -> None:
        """Run ops until the loop's total wall time reaches loop_s."""
        start = time.perf_counter() - self.loop_s
        while self.loop_s < loop_s:
            i = self.next_op
            x = self.w.make(self.shared, self.seed, i)
            dt, out = self.op(x)
            self.plain.append(dt)
            self.completed += out is not None
            if self.tracer is not None:
                self.tracer.op_start()
                with self.tracer:
                    dt, tout = self.op(x)
                self.traced.append(dt)
                if out is not None and tout is not None and tout != out:
                    self.fail(f"traced op {i} returned {tout}, untraced "
                              f"{out}")
            self.next_op += 1
            self.loop_s = time.perf_counter() - start

    def cli_sample(self, workdir, reference) -> tuple[float, bool]:
        """The workload's CLI commands once: (wall s, bytes identical)."""
        total, identical = 0.0, True
        for args in self.w.cli:
            key = " ".join(args)
            self.attempted += 1
            try:
                dt, proc = run_cli(args, workdir)
            except subprocess.TimeoutExpired:
                self.fail(f"cli `{key}` timed out")
                continue
            total += dt
            if proc.returncode != 0:
                self.fail(f"cli `{key}` exited {proc.returncode}: "
                          f"{proc.stderr.decode()[-300:]}")
                continue
            ref = reference[key]
            identical &= (hashlib.sha256(proc.stdout).hexdigest()
                          == ref["sha256"])
            try:
                bad = json_mismatch(json.loads(proc.stdout), ref["stdout"],
                                    CLI_TOL)
            except ValueError as exc:
                bad = f"unparsable output ({exc})"
            if bad:
                self.fail(f"cli `{key}`: output differs from the reference "
                          f"at {bad}")
        return total, identical


class OpTracer:
    """Tracer plus the per-op counters the derived layer metrics need."""

    def __init__(self):
        from tracer import Tracer
        self.tracer = Tracer("proctensor", LAYERS)
        self.ops = 0
        self.tables = 0  # distinct (labels, dims) reconstructed, summed per op
        self.samples = 0  # Haar samples requested from projective_survey
        self._seen = set()
        self.tracer.hooks["tomography.reconstruct"] = self._on_reconstruct
        self.tracer.hooks["memory.projective_survey"] = self._on_survey

    def _on_reconstruct(self, args, kwargs):
        counts = args[0] if args else kwargs["counts"]
        dims = args[1] if len(args) > 1 else kwargs["dims"]
        key = (counts.labels, tuple(int(d) for d in dims))
        if key not in self._seen:
            self._seen.add(key)
            self.tables += 1

    def _on_survey(self, args, kwargs):
        self.samples += int(args[2] if len(args) > 2 else kwargs["samples"])

    def op_start(self):
        self.ops += 1
        self._seen = set()

    def __enter__(self):
        self.tracer.install()

    def __exit__(self, *exc):
        self.tracer.uninstall()

    def layer_metrics(self) -> dict:
        t, n = self.tracer, max(self.ops, 1)
        out = {}
        for mod, fns in LAYER_FUNCTIONS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                out[f"{name}.calls"] = (t.calls[name] / n, "count")
                out[f"{name}.self_s"] = (t.self_s[name] / n, "s")
        builds = t.calls["tomography.inversion_matrix"]
        out["tomography.inversion_builds_per_table"] = (
            builds / self.tables if self.tables else 0.0, "ratio")
        busy = t.incl_s["memory.projective_survey"]
        out["memory.projective_survey.samples_per_s"] = (
            self.samples / busy if busy else 0.0, "1/s")
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "proctensor", "__init__.py")):
        print(f"error: no proctensor package under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (expected one of "
              f"{sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "cli_reference.json")) as fh:
        reference = json.load(fh)

    with scratch_dir() as workdir:
        return measure(w, args, workdir, reference)


def measure(w, args, workdir, reference) -> int:
    tracer = OpTracer() if args.trace else None
    run = Run(w, w.setup(args.seed, workdir), args.seed, tracer)
    cli_dir = os.path.join(workdir, "cli")
    os.makedirs(cli_dir)
    probe(["setup", w.name, str(args.seed)])  # fills caches, untimed
    run.warmup()
    # the op loop is cut into SAMPLES slices with one setup probe and one
    # CLI sample after each, so every metric samples the whole run and a
    # slow spell of the machine does not land on one metric alone
    setup, cli, cli_import, identical = [], [], [], True
    for k in range(SAMPLES):
        run.loop_until(args.seconds * (k + 1) / SAMPLES)
        setup.append(probe(["setup", w.name, str(args.seed)])[0])
        dt, same = run.cli_sample(cli_dir, reference)
        cli.append(dt)
        identical &= same
        if tracer is not None:
            cli_import.append(float(probe(["cli-import"])[1]))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain, traced = run.plain, run.traced

    op_p50 = statistics.median(plain)
    cli_p50 = statistics.median(cli)
    setup_s = statistics.median(setup)
    e2e = {
        "op_s_p50": (op_p50, "s"),
        "ops_per_s": (run.completed / sum(plain), "1/s"),
        "cli_s_p50": (cli_p50, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(plain),
        "op_s_p90": (statistics.quantiles(plain, n=10)[-1]
                     if len(plain) >= P90_MIN_OPS else None),
        "fail_frac": run.failed / run.attempted,
        "failures": run.failures,
        "cli_samples_s": cli, "cli_commands": [" ".join(a) for a in w.cli],
        "cli_bytes_identical": identical,
        "setup_samples_s": setup,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "machine": machine_info(),
    }
    if tracer is None:
        metrics = e2e
    else:
        metrics = tracer.layer_metrics()
        metrics["cli.import_s"] = (statistics.median(cli_import), "s")
        metrics["cli.overhead_s"] = (cli_p50 - (setup_s + op_p50), "s")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / op_p50 - 1.0, "ratio")
        report["traced_ops"] = len(traced)
        report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
