"""ncpick benchmark: drives the CLI in-process on seeded workloads.

One process, one client, closed loop: each request is a call to
``ncpick.cli.main(argv)`` on an input file written before timing starts,
and the next request is sent only after the previous one returns.  BLAS
runs single-threaded.

    python3 bench/run.py --workload pick-solve --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

``--trace 0`` measures the end-to-end metrics with the library untouched;
``--trace 1`` sends each request of a fixed list untraced and traced, back
to back, and reports per-layer metrics.  The last stdout line is one JSON
object; the lines before it print every metric with its unit.  See
``bench/README.md`` for the workloads and metrics.
"""

import os

# The BLAS thread count is read when numpy loads, so it is fixed first.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("pick-solve", "certify", "evaluate")

# Rounds of the class schedule generated per run (one round runs every size
# class once); the untraced loop wraps around if it outruns them.  The loop
# measures whole rounds only, so every run sees the same class mix.
ROUNDS = {"pick-solve": 8, "certify": 16, "evaluate": 10}
# Requests in one trace pass (whole rounds): the same leading requests in
# every pass.
TRACE_REQUESTS = {"pick-solve": 16, "certify": 28, "evaluate": 240}
SETUP_REPEATS = 3
# Fresh interpreters whose median ``import ncpick.cli`` time goes into setup_s.
IMPORT_REPEATS = 5

INTERP_TOL = 1e-8
CONTRACTIVITY_TOL = 1e-9
VALUE_REL_TOL = 1e-10
DEFAULT_TOL = 1e-9  # the CLI's default --tol, which the workloads use


# ---------------------------------------------------------------------------
# Requests and output checks
# ---------------------------------------------------------------------------


def call(cli, argv):
    """Run one CLI request; returns (exit code or exception, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # counted as a failed request
            rc = exc
        except SystemExit as exc:
            rc = exc.code
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def _matrix(obj, np):
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def check(req, rc, stdout, np):
    """Problems with one response, whether the verdict was wrong, marginal flag."""
    problems, verdict_error, marginal = [], False, None
    if isinstance(rc, BaseException):
        return [f"exception {type(rc).__name__}: {rc}"], False, None
    expect_rc = 0 if req.feasible else 1
    if rc != expect_rc:
        problems.append(f"exit code {rc}, expected {expect_rc}")
        verdict_error = rc in (0, 1)
    if stdout.count("\n") != 1 or not stdout.endswith("\n"):
        problems.append("stdout is not exactly one line")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"], verdict_error, None
    if not isinstance(doc, dict) or doc.get("v") != 1 or "error" in doc:
        return problems + [f"unexpected document: {stdout[:200]}"], verdict_error, None
    try:
        verdict_error, marginal = _check_fields(req, doc, problems, verdict_error, np)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed output field: {exc!r}")
    return problems, verdict_error, marginal


def _check_fields(req, doc, problems, verdict_error, np):
    marginal = None
    cmd = req.command
    if cmd == "pick-solve":
        if doc["feasible"] != req.feasible:
            verdict_error = True
            problems.append(f"feasible={doc['feasible']} for a {req.label} request")
        if doc["verdict"] == "psd":
            marginal = doc["min_eig"] < DEFAULT_TOL
        if doc["feasible"]:
            if not doc["interp_residual"] <= INTERP_TOL:
                problems.append(f"interp_residual {doc['interp_residual']:.3g}")
            samples = doc["contractivity_samples"]
            if not samples or max(samples) > 1 + CONTRACTIVITY_TOL:
                problems.append(f"contractivity sample {max(samples, default=float('nan')):.17g}")
    elif cmd in ("pick-check", "stein-check", "cp-check"):
        cert = doc["certificate"]
        if (cert["verdict"] == "psd") != req.feasible:
            verdict_error = True
            problems.append(f"verdict {cert['verdict']} for a {req.label} request")
        if cert["verdict"] == "psd":
            marginal = bool(cert["marginal"])
    elif cmd in ("eval", "realize-eval"):
        ref = req.reference["value"]
        got = _matrix(doc["value"], np)
        if got.shape != ref.shape:
            problems.append(f"value shape {got.shape}, expected {ref.shape}")
        else:
            err = float(np.linalg.norm(got - ref)) / float(np.linalg.norm(ref))
            if not err <= VALUE_REL_TOL:
                problems.append(f"value relative error {err:.3g}")
    elif cmd == "domain-check":
        if doc["in_domain"] != req.feasible:
            verdict_error = True
            problems.append(f"in_domain={doc['in_domain']} for a {req.label} request")
        if not abs(doc["margin"] - req.reference["margin"]) <= VALUE_REL_TOL:
            problems.append(f"margin {doc['margin']!r}, reference {req.reference['margin']!r}")
    elif cmd == "okaweil":
        rep = doc["report"]
        if not rep["observed_max"] <= rep["apriori_bound"]:
            problems.append(f"observed_max {rep['observed_max']:.3g} > "
                            f"bound {rep['apriori_bound']:.3g}")
        if rep["L"] != req.sizes["L"]:
            problems.append(f"truncation L {rep['L']}, requested {req.sizes['L']}")
    return verdict_error, marginal


class Tally:
    """Failures, verdict errors and marginal flags over checked requests."""

    def __init__(self):
        self.attempted = self.failed = self.verdict_errors = 0
        self.psd = self.marginal = 0
        self.examples: list = []

    def add(self, index, req, problems, verdict_error, marginal):
        self.attempted += 1
        self.failed += bool(problems)
        self.verdict_errors += verdict_error
        if marginal is not None:
            self.psd += 1
            self.marginal += marginal
        if problems and len(self.examples) < 20:
            self.examples.append({"request": index, "command": req.command,
                                  "sizes": req.sizes, "problems": problems})

    def quality(self) -> dict:
        return {
            "error_rate": self.failed / max(1, self.attempted),
            "verdict_errors": self.verdict_errors,
            "marginal_rate": self.marginal / self.psd if self.psd else 0.0,
        }


# ---------------------------------------------------------------------------
# Set-up: inputs and warm-up
# ---------------------------------------------------------------------------


def setup_once(cli, gen, workload, seed, workdir):
    """Generate and write the inputs, then warm up; returns the prepared run."""
    requests, texts, digest = gen.generate(workload, seed, ROUNDS[workload])
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, text in enumerate(texts):
        path = workdir / f"{i:05d}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path.relative_to(ROOT)))
    # warm-up: the first request of each (command, label) pair; the timed
    # loop re-runs these and their stdout must come back byte-identical
    warm, seen = {}, set()
    for i, req in enumerate(requests):
        if (req.command, req.label) not in seen:
            seen.add((req.command, req.label))
            warm[i] = call(cli, req.argv(paths[i]))[1]
    return requests, paths, digest, warm


def import_times(repeats):
    """Seconds to import ``ncpick.cli`` in each of ``repeats`` fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import ncpick.cli; print(time.perf_counter() - t0)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


def setup(cli, gen, workload, seed, workdir):
    times, runs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        runs.append(setup_once(cli, gen, workload, seed, workdir))
        times.append(time.perf_counter() - t0)
    digests = {r[2] for r in runs}
    warm_stable = all(r[3] == runs[0][3] for r in runs)
    return runs[-1], times, len(digests) == 1 and warm_stable


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_requests(cli, np, requests, paths, warm, tally, indices, tracer=None):
    """Send the requests in order; returns per-request latencies and stdout bytes."""
    lat, nbytes = [], 0
    for i in indices:
        j = i % len(requests)
        req = requests[j]
        if tracer is not None:
            tracer.request_id = i
        rc, out, dt = call(cli, req.argv(paths[j]))
        lat.append(dt)
        nbytes += len(out.encode())
        problems, verdict_error, marginal = check(req, rc, out, np)
        if j in warm and out != warm[j]:
            problems.append("stdout differs from the warm-up run of the same input")
        tally.add(i, req, problems, verdict_error, marginal)
    return lat, nbytes


def closed_loop(cli, np, requests, paths, warm, tally, seconds, round_size):
    """Latencies of whole rounds, sent until the next round would pass ``seconds``.

    A round is started only if, at the mean round time so far, it ends within
    ``seconds``; the first round always runs.
    """
    rounds, start = [], time.perf_counter()
    while True:
        first = len(rounds) * round_size
        indices = range(first, first + round_size)
        rounds.append(run_requests(cli, np, requests, paths, warm, tally, indices)[0])
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(rounds, setup_s):
    """End-to-end metrics over whole rounds; throughput is the median round's."""
    s = sorted(x for lat in rounds for x in lat)
    p90, beyond = percentile(s, 0.9)
    return {
        "setup_s": setup_s,
        "throughput_rps": statistics.median(len(lat) / sum(lat) for lat in rounds),
        "latency_p50_s": statistics.median(s),
        "latency_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"rounds": len(rounds), "latency_samples": len(s), "samples_beyond_p90": beyond}


def traced_passes(cli, np, tracer_mod, requests, paths, warm, tally, workload, seconds):
    """Passes over the same leading requests, each sent untraced and traced.

    The two calls for one request run back to back, in alternating order, so
    drift in the machine's speed cancels from the overhead ratio.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        tracer = tracer_mod.Tracer()
        plain_s = traced_s = 0.0
        nbytes = 0
        for i in range(TRACE_REQUESTS[workload]):
            for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
                if not use_tracer:
                    plain_s += run_requests(cli, np, requests, paths, warm, tally, [i])[0][0]
                    continue
                tracer.install()
                try:
                    lat, nb = run_requests(cli, np, requests, paths, warm, tally, [i], tracer)
                finally:
                    tracer.uninstall()
                traced_s += lat[0]
                nbytes += nb
        plain.append(plain_s)
        traced.append((traced_s, tracer.spans, nbytes))
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            return plain, traced


def layer_metrics(tracer_mod, requests, spans, wall, nbytes):
    """Per-layer counts, self times and computed sizes of one traced pass."""
    self_t = tracer_mod.self_times(spans)
    names = [s[0] for s in spans]

    def where(pred):
        return [k for k, name in enumerate(names) if pred(name)]

    def calls(name):
        return len(where(lambda n: n == name))

    def self_of(*wanted):
        return sum(self_t[k] for k in where(lambda n: n in wanted))

    def inside(is_ancestor):
        """Per span: whether some enclosing span k has is_ancestor(k)."""
        flag = [False] * len(spans)
        for k, span in enumerate(spans):
            parent = span[3]
            flag[k] = parent >= 0 and (flag[parent] or is_ancestor(parent))
        return flag

    m = {}
    m["core.eval_poly.calls"] = calls("core._eval_poly")
    m["core.eval_poly.self_s"] = self_of("core._eval_poly")
    m["core.operator_norm.calls"] = calls("core.operator_norm")
    m["core.operator_norm.self_s"] = self_of("core.operator_norm")

    samples = calls("sampling.sample_in_domain")
    in_sampling = inside(lambda k: names[k] == "sampling.sample_in_domain")
    sample_norms = sum(1 for k in where(lambda n: n == "core.operator_norm") if in_sampling[k])
    m["sampling.sample_in_domain.calls"] = samples
    m["sampling.sample_in_domain.self_s"] = self_of("sampling.sample_in_domain")
    m["sampling.norm_evals_per_sample"] = sample_norms / samples if samples else 0.0

    stein = [spans[k][5] for k in where(lambda n: n in ("kernels.szego_kernel_solve",
                                                          "kernels.szego_map_matrix"))]
    m["kernels.stein.calls"] = len(stein)
    m["kernels.stein.self_s"] = self_of("kernels.szego_kernel_solve", "kernels.szego_map_matrix")
    m["kernels.stein.max_dim"] = max((s["dim"] for s in stein), default=0)
    # complex LU: (8/3) N^3 real flops; each right-hand side: 8 N^2
    m["kernels.stein.flops_computed"] = sum(8 * s["dim"] ** 3 / 3 + 8 * s["dim"] ** 2 * s["nrhs"]
                                            for s in stein)

    choi_names = ("kernels.map_matrix_to_choi", "kernels.cp_check_finite")
    builds = where(lambda n: n in choi_names)
    sides = [spans[k][5]["side"] for k in builds]
    own = [requests[spans[k][4] % len(requests)].sizes["choi_side"] for k in builds]
    m["kernels.choi.builds"] = len(builds)
    m["kernels.choi.max_side"] = max(sides, default=0)
    m["kernels.choi.self_s"] = self_of("kernels.dbr_map_matrix", *choi_names)
    m["kernels.choi.bytes_computed"] = sum(16 * s * s for s in sides)
    psd = [spans[k][5]["side"] for k in where(lambda n: n == "kernels.psd_check")]
    kol = [spans[k][5]["side"] for k in where(lambda n: n == "kernels.kolmogorov_factor")]
    # eigvalsh reads a Hermitian copy and writes the eigenvalues; eigh also
    # writes the eigenvectors
    m["kernels.eigh.bytes_computed"] = (sum(16 * s * s + 8 * s for s in psd)
                                        + sum(32 * s * s + 8 * s for s in kol))
    m["kernels.psd_check.calls"] = len(psd)
    m["kernels.psd_check.self_s"] = self_of("kernels.psd_check")
    m["kernels.kolmogorov.self_s"] = self_of("kernels.kolmogorov_factor")
    m["kernels.amplification_ratio"] = sum(sides) / sum(own) if own else 0.0

    m["interpolation.pick_certificate.self_s"] = self_of("interpolation.pick_certificate")
    m["interpolation.solve_pick.self_s"] = self_of("interpolation.solve_pick")
    feasible_solves = {k for k in where(lambda n: n == "interpolation.solve_pick")
                       if spans[k][5] and spans[k][5]["feasible"]}
    in_solve = inside(lambda k: k in feasible_solves)
    solve_builds = sum(1 for k in builds if in_solve[k])
    m["interpolation.choi_builds_per_solve"] = (solve_builds / len(feasible_solves)
                                                if feasible_solves else 0.0)

    synth = [spans[k][5] for k in where(lambda n: n == "realization.lurking_isometry_synthesize")]
    m["realization.synthesize.self_s"] = self_of("realization.lurking_isometry_synthesize")
    m["realization.transfer_eval.calls"] = calls("realization.transfer_eval")
    m["realization.transfer_eval.self_s"] = self_of("realization.transfer_eval")
    m["realization.state_dim_max"] = max((s["state_dim"] for s in synth if s), default=0)

    m["okaweil.partial_sum.calls"] = calls("okaweil.partial_sum_eval")
    m["okaweil.partial_sum.self_s"] = self_of("okaweil.partial_sum_eval")

    for kind in ("decode", "encode"):
        spans_of_kind = where(lambda n: n.startswith(f"serialize.{kind}"))
        m[f"serialize.{kind}.self_s"] = sum(self_t[k] for k in spans_of_kind)
    m["serialize.bytes_out"] = nbytes

    layer_self = {layer: 0.0 for layer in tracer_mod.LAYERS}
    for name, t in zip(names, self_t):
        layer_self[tracer_mod.layer_of(name)] += t
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    covered = sum(s[2] - s[1] for s in spans if s[3] < 0)
    m["trace.unattributed_s"] = wall - covered
    m["trace.wall_s"] = wall
    return m


def metric_units():
    """Unit of every declared metric, read from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# Environment and entry points
# ---------------------------------------------------------------------------


def environment(np, scipy_version, seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
    }


def import_library():
    """Import ``ncpick`` from this checkout's ``src/`` and nowhere else.

    Returns the ``ncpick.cli`` module and the seconds its import took.
    """
    if not (SRC / "ncpick" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'ncpick'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("ncpick.cli")
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "ncpick").resolve():
        sys.exit(f"error: imported ncpick from {cli.__file__}, not from {SRC}")
    return cli, import_s


def run_workload(args):
    cli, import_s = import_library()
    import numpy as np
    import scipy

    import gen
    import tracing as tracer_mod

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        (requests, paths, digest, warm), setup_times, stable = setup(
            cli, gen, args.workload, args.seed, workdir)
        tally = Tally()
        details = {
            "workload": args.workload,
            "trace": args.trace,
            "input_digest_sha256": digest,
            "inputs_regenerate_identically": stable,
            "setup_times_s": setup_times,
            "import_s": import_s,
            "environment": environment(np, scipy.__version__, args.seed),
        }
        if args.trace:
            plain, traced = traced_passes(cli, np, tracer_mod, requests, paths, warm, tally,
                                          args.workload, args.seconds)
            order = sorted(range(len(traced)), key=lambda k: traced[k][0])
            wall, spans, nbytes = traced[order[len(order) // 2]]
            metrics = layer_metrics(tracer_mod, requests, spans, wall, nbytes)
            counts = [layer_metrics(tracer_mod, requests, t[1], t[0], t[2]) for t in traced]
            count_keys = [k for k in metrics if k.endswith((".calls", ".builds", "_computed"))]
            details["counts_repeat"] = all(all(c[k] == metrics[k] for k in count_keys)
                                           for c in counts)
            metrics["trace.overhead_ratio"] = (statistics.median(t[0] for t in traced)
                                               / statistics.median(plain))
            details["layer_self_plus_unattributed_s"] = metrics["trace.unattributed_s"] + sum(
                metrics[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
            metrics.update(tally.quality())
            details["requests"] = [{"command": r.command, "label": r.label, "sizes": r.sizes}
                                   for r in requests[:TRACE_REQUESTS[args.workload]]]
            details["untraced_pass_s"] = plain
            details["traced_pass_s"] = [t[0] for t in traced]
            WORK.mkdir(exist_ok=True)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for s in spans:
                    fh.write(json.dumps(s, separators=(",", ":")) + "\n")
            details["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            # the in-process import above follows run.py's own imports, so
            # setup_s times the import in fresh interpreters instead
            details["fresh_import_times_s"] = fresh_imports = import_times(IMPORT_REPEATS)
            setup_s = statistics.median(fresh_imports) + statistics.median(setup_times)
            rounds = closed_loop(cli, np, requests, paths, warm, tally, args.seconds,
                                 len(requests) // ROUNDS[args.workload])
            metrics, extra = end_to_end(rounds, setup_s)
            details.update(extra)
            details.update(tally.quality())
            lat = [x for r in rounds for x in r]
            details["requests"] = [{"command": requests[i % len(requests)].command,
                                    "label": requests[i % len(requests)].label,
                                    "sizes": requests[i % len(requests)].sizes,
                                    "latency_s": dt} for i, dt in enumerate(lat)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end_units, per_layer_units = metric_units()
    units = {**end_to_end_units, **per_layer_units}
    declared = per_layer_units if args.trace else end_to_end_units
    if set(metrics) != set(declared):
        sys.exit("error: measured metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    details["failures"] = tally.examples
    correct = tally.failed == 0 and stable
    details["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    WORK.mkdir(exist_ok=True)
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(details, indent=1, default=str), encoding="utf-8")

    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  inputs sha256={digest}")
    env = details["environment"]
    print(f"# nproc={env['nproc']} blas={env['blas']['name']} {env['blas']['version']} "
          f"threads={env['blas_threads']['OPENBLAS_NUM_THREADS']} numpy={env['numpy']} "
          f"scipy={env['scipy']} python={env['python']}")
    shown = dict(metrics)
    if not args.trace:
        shown.update(tally.quality())
    for name, value in shown.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    if args.trace:
        print(f"# layer self times + unattributed = "
              f"{details['layer_self_plus_unattributed_s']:.6f} s;"
              f" traced wall = {metrics['trace.wall_s']:.6f} s; counts repeat across traced"
              f" passes: {details['counts_repeat']}")
    else:
        print(f"{'latency samples (beyond p90)':42s} {details['latency_samples']:>16d} "
              f"({details['samples_beyond_p90']}) in {details['rounds']} rounds")
    for failure in tally.examples:
        print(f"# FAILED request {failure['request']} {failure['command']} "
              f"{failure['sizes']}: {'; '.join(failure['problems'])}")
    print(f"# details: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": details["metrics"],
    }))
    return 0


def run_all(args):
    """Every workload in its own process (peak memory is per process)."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            return proc.returncode or 2
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
