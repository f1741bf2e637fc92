#!/usr/bin/env python3
"""Host-time benchmark of the SimPhony reproduction on four simulator workloads.

Run from the repository root::

    python3 perfbench/run.py --workload lt_bert --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # two-iteration self-test

One run is a closed loop: a single client sends one cold request at a time
(see ``workloads.py``) for ``--seconds`` seconds and checks every output.  The
last line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones
of ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.  The line before
it records provenance and the details a metric value cannot carry (the
iteration-time tail with its percentile, sample count, work unit, model error
against the paper).

Every time is host time, what the simulator costs to run; end-to-end times
are scaled to a reference host speed by a calibration kernel timed before
and after each request (see ``calibrate`` and ``ForkedCalibration``).  BLAS
is pinned to one thread per process before numpy loads, so the two workers of
``tempo_dse_procs`` fit two cores and no workload depends on whether a second
core happens to be free (the cause of the bimodal ``lt_bert`` timings seen
with the default two OpenBLAS threads).
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from layertrace import ENGINE_PASSES, MC_STAGES, NO_TRACE, Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / "benchmarks" / "results"
WORKLOAD_NAMES = ("lt_bert", "tempo_dse", "mc_robustness", "tempo_dse_procs")

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 15
#: Every workload runs at least this many timed rounds, however long they take.
MIN_ROUNDS = 3
#: Seconds :func:`calibrate` takes on the two-core host the bounds were set
#: on.  End-to-end times are reported at that host speed (see README.md).
CALIBRATION_REF_S = 0.009
#: Seconds :class:`ForkedCalibration` takes for two processes at that host
#: speed (timed alternately with :func:`calibrate` and rescaled).
FORKED_CALIBRATION_REF_S = 0.0116

CACHE_STAGES = (
    "build", "design_point", "mapper_limits", "map", "memory", "optics_profile",
    "critical_path", "floorplan", "sparsity", "operand_values", "device_power",
    "receiver_precision", "mc_accuracy",
)
#: The benchmark's layer calls; they never nest, so they add up with
#: ``unattributed_s`` to the traced iteration wall-clock ``iter_s_traced``.
LAYER_SPANS = (
    "onn.build_s", "onn.convert_s", "onn.extract_s", "engine.run_s",
    "explore.explore_s", "explore.pareto_s", "exec.explore_s",
)

#: The iteration-time tail is printed on the details line, not gated as a
#: metric: on a shared host, bursts of outside load decide it, and over two
#: sets of ten runs of the same code on ``tempo_dse_procs`` its quartiles
#: spread 25% and 31% of the median, past the largest bound a metric may have.
END_TO_END = {
    "iter_s_p50": "s",
    "work_per_s": "work/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_names() -> List[str]:
    names = ["onn.build_s", "onn.convert_s", "onn.extract_s", "onn.gemms", "engine.run_s"]
    for stage in ENGINE_PASSES + ("other",):
        names += [f"engine.pass.{stage}_s", f"engine.pass.{stage}_n"]
    for stage in CACHE_STAGES:
        names += [f"cache.{stage}.hits", f"cache.{stage}.misses", f"cache.{stage}.hit_ratio"]
    names += ["cache.other.hits", "cache.other.misses", "cache.evictions"]
    names += ["explore.explore_s", "explore.pareto_s", "explore.points"]
    names += [f"mc.stage.{stage}_s" for stage in MC_STAGES + ("other",)] + ["mc.trials"]
    names += ["exec.explore_s", "exec.worker_pass_s", "exec.context_bytes",
              "exec.speedup_vs_serial"]
    names += ["iter_s_traced", "unattributed_s", "trace_overhead_s"]
    return names


PER_LAYER = _per_layer_names()


def per_layer_unit(name: str) -> str:
    if name.endswith("hit_ratio"):
        return "ratio"
    if name == "exec.context_bytes":
        return "bytes"
    if name == "exec.speedup_vs_serial":
        return "x"
    return "s" if name.endswith("_s") else "count"


# -- statistics -------------------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile of the iteration times
    with at least ten samples above it; with fewer than 11 samples, the
    maximum as the 100th percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# -- environment ------------------------------------------------------------------------


def refuse_numerics_knobs() -> None:
    """Exit when a knob that changes computed results is set off its default."""
    from repro.core import knobs

    changed = [
        f"{k.name}={knobs.raw_value(k.name)}"
        for k in knobs.all_knobs()
        if k.affects_numerics
        and knobs.raw_value(k.name) is not None
        and knobs.raw_value(k.name) != k.default
    ]
    if changed:
        sys.exit(
            "refusing to run: numerics knobs set to non-default values would measure "
            f"a different program: {', '.join(changed)}"
        )


def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance() -> Dict[str, Any]:
    import numpy as np

    from repro.core.knobs import repro_env_snapshot

    code = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        code.update(path.relative_to(SRC).as_posix().encode())
        code.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
        "git_commit": _git_commit(),
        "src_sha1": code.hexdigest(),
        "repro_env": repro_env_snapshot(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_helpers() -> None:
    """Unlink the process backend's shared memory and stop, and wait for, the
    resource-tracker process it started."""
    from multiprocessing import resource_tracker

    from repro.exec.shm import unlink_all

    unlink_all()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def calibrate() -> float:
    """Seconds a fixed Python-and-numpy kernel takes on this host right now.

    The benchmark's own code, independent of the program: the ratio of
    :data:`CALIBRATION_REF_S` to it, taken around a single-process request,
    scales that request to the reference host speed.  On a shared host,
    outside load slows the kernel and the request alike, so the scaled times
    move with the program, not the host.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((128, 128))
    for _ in range(20):
        np.sort(rng.standard_normal(20_000))
        matrix @ matrix[:, :64]
    return time.perf_counter() - start


class ForkedCalibration:
    """Seconds :func:`calibrate` takes in ``jobs`` processes forked at once.

    The kernel for a workload whose requests run on worker processes: such a
    request also pays for forks and for a second core, which the
    single-process kernel does not see.  Over eight runs of
    ``tempo_dse_procs``, the runs' median request times spread (quartile
    distance over median) 0.065 scaled by this kernel, 0.113 scaled by
    :func:`calibrate` and 0.149 unscaled.  The workers fork from a helper made
    before the program is loaded, so the kernel's cost does not depend on the
    program's memory.  :meth:`close` stops the helper and waits for it.
    """

    def __init__(self) -> None:
        requests, self._request = os.pipe()
        self._reply, replies = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(self._request)
            os.close(self._reply)
            try:
                self._serve(requests, replies)
            finally:
                os._exit(0)
        os.close(requests)
        os.close(replies)

    @staticmethod
    def _serve(requests: int, replies: int) -> None:
        calibrate()  # loads numpy before the first timed fork
        while True:
            jobs = os.read(requests, 1)
            if not jobs:
                return
            start = time.perf_counter()
            children = []
            for _ in range(jobs[0]):
                pid = os.fork()
                if pid == 0:
                    try:
                        calibrate()
                    finally:
                        os._exit(0)
                children.append(pid)
            for pid in children:
                os.waitpid(pid, 0)
            os.write(replies, struct.pack("d", time.perf_counter() - start))

    def __call__(self, jobs: int) -> float:
        os.write(self._request, bytes([jobs]))
        return struct.unpack("d", os.read(self._reply, 8))[0]

    def close(self) -> None:
        os.close(self._request)
        os.close(self._reply)
        os.waitpid(self._pid, 0)


def bracket_scale(seconds: float, before: float, after: float, ref: float) -> float:
    """``seconds`` at the reference host speed, given the calibrations taken
    just before and just after them: load that comes or goes while they run
    reaches one of the two."""
    return seconds * ref * 2.0 / (before + after)


def measure_setup(probes: int = SETUP_PROBES) -> Tuple[float, float]:
    """Median seconds from starting a fresh interpreter to ready-for-request:
    ``(at reference host speed, as measured)``."""
    raw, calibrations = [], [calibrate()]
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        raw.append(elapsed)
        calibrations.append(calibrate())
    scaled = [
        bracket_scale(t, calibrations[i], calibrations[i + 1], CALIBRATION_REF_S)
        for i, t in enumerate(raw)
    ]
    return statistics.median(scaled), statistics.median(raw)


# -- the measurement loop ---------------------------------------------------------------


class Run:
    """One closed-loop measurement of one workload."""

    def __init__(self, name: str, seed: int, trace: bool, forked: ForkedCalibration) -> None:
        from workloads import WORKLOADS, digest

        self.workload = WORKLOADS[name](seed)
        self.trace = trace
        self.digest = digest
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.walls: Dict[str, List[float]] = {"plain": [], "traced": [], "serial": []}
        processes = self.workload.processes
        if processes == 1:
            self.calibrate, self.calibration_ref = calibrate, CALIBRATION_REF_S
        else:
            self.calibrate = lambda: forked(processes)
            self.calibration_ref = FORKED_CALIBRATION_REF_S
        #: Every calibration taken, in order, and per untraced request its
        #: ``(wall, work, index of the calibration taken just before it)``.
        self.calibrations: List[float] = []
        self.requests: List[Tuple[float, float, int]] = []
        #: Untraced request times scaled to the reference host speed.
        self.scaled: List[float] = []
        self.throughputs: List[float] = []
        self.records: List[Dict[str, float]] = []
        self.first_values: Dict[str, Any] = {}
        self.first_digest: Optional[str] = None

    def prepare(self) -> None:
        """The untimed warm-up request; every later output must match it."""
        first = self.workload.run(NO_TRACE)
        self.first_values = first.values
        self.first_digest = self.digest(first.values)
        try:
            self.workload.verify(first.values)
        except AssertionError as exc:
            self.problems.append(f"warm-up output check: {exc}")

    def check_reference(self) -> None:
        """The warm-up output against the registry and the committed tables.

        At a seed other than the default, a default-seed request is checked as
        well, so the committed tables guard every run.  This runs after the
        timed loop, so the reference runs do not raise the measured peak RSS;
        every timed request already matched the warm-up digest.
        """
        from workloads import DEFAULT_SEED

        try:
            _match(self.first_values, self.workload.reference(RESULTS_DIR))
            if self.workload.offset:
                default = type(self.workload)(DEFAULT_SEED)
                expected = default.reference(RESULTS_DIR)
                if expected is not None:
                    _match(default.run(NO_TRACE).values, expected)
        except AssertionError as exc:
            self.problems.append(f"reference check: {exc}")

    def check(self, values: Dict[str, Any]) -> Optional[str]:
        try:
            self.workload.verify(values)
        except AssertionError as exc:
            return f"output check: {str(exc) or 'shape check failed'}"
        if self.digest(values) != self.first_digest:
            return "output digest differs from the warm-up request"
        return None

    def schedule(self) -> List[str]:
        if not self.trace:
            return ["plain"]
        kinds = ["plain", "traced"]
        if hasattr(self.workload, "serial"):
            kinds.append("serial")
        return kinds

    def iterate(self, kind: str, corrupt_output: bool = False) -> None:
        from workloads import corrupt

        runner = self.workload.serial() if kind == "serial" else self.workload
        recorder = Recorder() if kind == "traced" else None
        self.attempted += 1
        gc.collect()
        if kind == "plain":
            self.calibrations.append(self.calibrate())
        try:
            with recorder.observing() if recorder else contextlib.nullcontext():
                start = time.perf_counter()
                outcome = runner.run(recorder or NO_TRACE)
                wall = time.perf_counter() - start
        except Exception:  # a failed request is counted, reported and survived
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        if corrupt_output:
            corrupt(outcome.values)
        problem = self.check(outcome.values)
        if problem is not None:
            self.failed += 1
            print(f"{self.workload.name}: iteration {self.attempted}: {problem}", file=sys.stderr)
            return
        self.walls[kind].append(wall)
        if kind == "plain":
            self.requests.append((wall, outcome.work, len(self.calibrations) - 1))
        if recorder is not None:
            self.records.append(self._layer_record(recorder, outcome, wall))

    def loop(self, seconds: float, rounds: Optional[int] = None,
             corrupt_at: Optional[int] = None) -> None:
        kinds = self.schedule()
        start = time.perf_counter()
        done = 0
        while True:
            if rounds is not None:
                if done >= rounds:
                    break
            elif done >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
                break
            for kind in kinds:
                self.iterate(kind, corrupt_output=self.attempted + 1 == corrupt_at)
            done += 1
        # On every DSE and Monte Carlo run measured, the kernels before and
        # after a request together followed it more closely than the one
        # before alone (per-request correlation 0.5-0.8, against 0.2-0.6).
        gc.collect()
        self.calibrations.append(self.calibrate())
        for wall, work, k in self.requests:
            scaled = bracket_scale(wall, self.calibrations[k], self.calibrations[k + 1],
                                   self.calibration_ref)
            self.scaled.append(scaled)
            self.throughputs.append(work / scaled)

    @staticmethod
    def _layer_record(recorder, outcome, wall: float) -> Dict[str, float]:
        record: Dict[str, float] = {**outcome.counts, **recorder.spans}
        for stage, timing in outcome.pass_timings.items():
            recorder.add_pass(stage, timing.total_s, timing.count)
        record.update(recorder.nested)
        record["exec.worker_pass_s"] = sum(t.total_s for t in outcome.pass_timings.values())
        evictions = 0
        for stage, stats in outcome.cache_stats.items():
            prefix = f"cache.{stage if stage in CACHE_STAGES else 'other'}"
            record[f"{prefix}.hits"] = record.get(f"{prefix}.hits", 0) + stats.hits
            record[f"{prefix}.misses"] = record.get(f"{prefix}.misses", 0) + stats.misses
            evictions += stats.evictions
        record["cache.evictions"] = evictions
        record["iter_s_traced"] = wall
        record["unattributed_s"] = wall - sum(recorder.spans.values())
        return record

    # -- results --------------------------------------------------------------------

    def end_to_end(self, setup_s: float, rss_mb: float) -> Dict[str, float]:
        return {
            "iter_s_p50": statistics.median(self.scaled),
            "work_per_s": statistics.median(self.throughputs),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }

    def per_layer(self, static_counts: Dict[str, float]) -> Dict[str, float]:
        n = len(self.records)
        metrics = {name: 0.0 for name in PER_LAYER}
        for record in self.records:
            for name, value in record.items():
                metrics[name] += value / n
        metrics.update(static_counts)
        for stage in CACHE_STAGES:
            hits, misses = metrics[f"cache.{stage}.hits"], metrics[f"cache.{stage}.misses"]
            metrics[f"cache.{stage}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        plain_p50 = statistics.median(self.walls["plain"])
        metrics["trace_overhead_s"] = statistics.median(self.walls["traced"]) - plain_p50
        if self.walls["serial"]:
            metrics["exec.speedup_vs_serial"] = statistics.median(self.walls["serial"]) / plain_p50
        return metrics


def _match(values: Dict[str, Any], expected: Optional[Dict[str, Any]]) -> None:
    for key, value in (expected or {}).items():
        if values.get(key) != value:
            raise AssertionError(f"{key} differs from the reference")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 forked: ForkedCalibration, rounds: Optional[int] = None,
                 corrupt_at: Optional[int] = None,
                 setup_probes: int = SETUP_PROBES) -> Dict[str, Any]:
    """Measure one workload and return the result object plus its details."""
    run = Run(name, seed, trace, forked)
    run.prepare()
    run.loop(seconds, rounds=rounds, corrupt_at=corrupt_at)
    # Peak RSS is read before the reference runs and the set-up probes, so it
    # covers the requests and the program's own children (pool workers).
    rss = peak_rss_mb()
    run.check_reference()
    details: Dict[str, Any] = {"workload": name, "seed": seed, "trace": int(trace)}
    if not run.walls["plain"] or (trace and not run.records):
        metrics: Dict[str, Dict[str, Any]] = {}
    elif trace:
        values = run.per_layer(run.workload.static_counts())
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        details["traced_iterations"] = len(run.records)
    else:
        setup_s, raw_setup_s = measure_setup(setup_probes)
        values = run.end_to_end(setup_s, rss)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        tail_s, tail_pct = tail(run.scaled)
        details.update(
            raw_iter_s_p50=statistics.median(run.walls["plain"]),
            raw_setup_s=raw_setup_s,
            calibration_s=statistics.median(run.calibrations),
            samples=len(run.walls["plain"]),
            iter_s_tail=tail_s,
            tail_percentile=round(tail_pct, 2),
            work_unit=run.workload.work_unit,
            setup_probes=setup_probes,
        )
    if name == "lt_bert":
        details["model_error_pct"] = model_error_pct(run.first_values)
    details["problems"] = run.problems
    correct = not run.problems and run.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return {"result": result, "details": details}


def model_error_pct(values: Dict[str, Any]) -> Dict[str, float]:
    """Simulated Fig. 8 area and power against the paper's SimPhony figures."""
    from repro.scenarios.catalog import FIG8_PAPER_AREA_MM2, FIG8_PAPER_POWER_W

    area = sum(values["area_mm2"].values())
    power = sum(values["power_w"].values())
    return {
        "model_area_err_pct": 100.0 * (area / FIG8_PAPER_AREA_MM2["simphony"] - 1.0),
        "model_power_err_pct": 100.0 * (power / FIG8_PAPER_POWER_W["simphony"] - 1.0),
    }


# -- entry points -----------------------------------------------------------------------


def smoke(forked: ForkedCalibration) -> int:
    """Two rounds per workload: metric names must match BENCHMARK.json, and a
    corrupted output must count as failed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: [m["name"] for m in declared["end_to_end"]],
        1: [m["name"] for m in declared["per_layer"]],
    }
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            out = run_workload(name, 1, 0.0, bool(trace), forked, rounds=2, setup_probes=1)
            result = out["result"]
            assert result["correct"] and result["failed"] == 0, (name, trace, out)
            assert sorted(result["metrics"]) == sorted(names[trace]), (name, trace)
            if trace:
                values = {k: m["value"] for k, m in result["metrics"].items()}
                spans = sum(values[k] for k in LAYER_SPANS) + values["unattributed_s"]
                assert abs(spans - values["iter_s_traced"]) < 1e-9, (name, spans)
        out = run_workload(name, 0, 0.0, False, forked, rounds=2, corrupt_at=2,
                           setup_probes=1)
        result = out["result"]
        assert result["failed"] == 1 and not result["correct"], (name, result)
        print(f"smoke {name}: ok", flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; one table, then the results."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, check=False,
        )
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        details = json.loads(lines[-2]) if len(lines) > 1 else {}
        print(f"{name}: correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']} "
              f"{json.dumps({k: v for k, v in details.items() if k != 'provenance'})}")
        for metric, value in results[name]["metrics"].items():
            print(f"  {metric:40s} {value['value']:.6g} {value['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the committed tables")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two-iteration self-test of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC / 'repro'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        # Everything a request needs before it can start: numpy, the package,
        # the scenario catalog and the benchmark's workload definitions.
        import workloads  # noqa: F401

        print("ready", flush=True)
        return 0
    if args.workload == "all" and not args.smoke:
        refuse_numerics_knobs()
        return run_all(args)
    forked = ForkedCalibration()  # before the program is loaded
    try:
        refuse_numerics_knobs()
        if args.smoke:
            return smoke(forked)
        try:
            out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), forked)
        finally:
            stop_helpers()
    finally:
        forked.close()
    out["details"]["provenance"] = provenance()
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
