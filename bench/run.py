"""graphstitch pipeline benchmark.

    python3 bench/run.py --workload sbm-rw-train --seed 1 --seconds 44 --trace 0

Run from the root of a source checkout. The workload's inputs (an edge
list and a config) are made from --seed under bench/.work/, which is
removed afterwards.

--trace 0: a closed loop with one client runs the six CLI commands
(sample, train, generate, eval, linkpred, progressive) in order, each as its
own `python -m graphstitch` child, repeating the chain until --seconds is
spent (at least twice). Wall time, user+sys CPU and peak RSS come from each
child's own rusage (os.wait4). Every chain's outputs are checked; a chain
with a failed command or check is counted in `failed` and kept out of the
figures. Before each chain a calibration child (bench/calibrate.py, fixed
work) measures the machine's speed, and a set-up probe times the import and
dataset parse. Each time metric is the median over the passing chains (over
the probes, for `setup_s`) of the time rescaled by its own calibration to
one machine speed; the raw times are on the notes line.

--trace 1: one process runs the six `pipeline.cmd_*` functions: once
untraced to warm up, then traced and untraced taking turns command by
command. The traced pass has timing wrappers around each layer's public
functions (bench/tracing.py) and gives the per-layer metrics.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}; the notes line before it records the environment and the
raw times.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import tracing
from checks import check_chain_outputs, check_same_bytes, file_hashes
from workloads import COMMANDS, WORKLOADS, make_inputs, prepare_chain_dir, program_env

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_CHAINS = 2  # the byte-determinism check needs a repetition
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60  # every command takes a few seconds; a hang must not stall the run
MIN_COVERAGE = 0.9  # least share of each traced command's wall time its layer spans cover
# A round value within the wall times of bench/calibrate.py on the baseline
# machine (0.38-0.90 s): every reported time is rescaled to the machine speed
# at which the calibration takes this long (see at_reference_speed).
CALIBRATION_REF_S = 0.5
SETUP_CODE = ("import sys, graphstitch.cli\n"
              "from graphstitch import graphs\n"
              "graphs.load_edge_list_file(sys.argv[1], relabel=True)\n")


@dataclass
class CommandResult:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Chain:
    commands: dict = field(default_factory=dict)  # command -> CommandResult
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0  # chain plus its checks and probes
    calibration_s: float = 0.0  # calibration probe run just before the chain

    @property
    def ok(self):
        return not self.errors


def run_child(argv, cwd, env, stderr=subprocess.DEVNULL):
    """Run one child to completion; its own wall time, CPU and peak RSS.

    A child still running after CHILD_TIMEOUT_S is killed, and so fails.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0)


def run_chain(chain_dir, env):
    """Run the six commands in order from `chain_dir`, stopping at a failure."""
    chain = Chain()
    with open(os.path.join(chain_dir, "stderr.log"), "wb") as log:
        for cmd in COMMANDS:
            res = run_child([sys.executable, "-m", "graphstitch", cmd,
                             "--config", "config.json"], chain_dir, env, log)
            chain.commands[cmd] = res
            chain.attempted += 1
            if res.returncode != 0:
                chain.failed += 1
                chain.errors.append(f"{cmd} exited {res.returncode}")
                break
    return chain


def check_chain(chain, out_dir, inputs, reference):
    """Run the output checks on a finished chain, recording failures on it.

    `reference` holds the file hashes of the first passing chain (None
    before there is one). Returns this chain's hashes.
    """
    results = check_chain_outputs(out_dir, inputs.dataset, inputs.target_edges, inputs.k)
    hashes = file_hashes(out_dir)
    if reference is not None:
        results["same_bytes"] = check_same_bytes(reference, hashes)
    for name, errors in results.items():
        chain.attempted += 1
        chain.failed += bool(errors)
        chain.errors += [f"{name}: {e}" for e in errors]
    return hashes


def fidelity(out_dir):
    """(|synthetic - real| mean clustering, link-prediction AUC)."""
    with open(os.path.join(out_dir, "comparison.csv"), encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh]
    col = rows[0].index("clustering")
    by_label = {r[0]: float(r[col]) for r in rows[1:]}
    with open(os.path.join(out_dir, "linkpred.json"), encoding="utf-8") as fh:
        auc = json.load(fh)["auc"]
    return abs(by_label["synthetic"] - by_label["real"]), auc


def measure_setup(inputs, env):
    """Wall time of a child that imports the CLI and parses the dataset."""
    res = run_child([sys.executable, "-c", SETUP_CODE, inputs.dataset],
                    inputs.workdir, env)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe exited {res.returncode}")
    return res.wall_s


def measure_calibration(inputs):
    """Wall time of bench/calibrate.py: fixed work, so only the machine moves it."""
    res = run_child([sys.executable, os.path.join(HERE, "calibrate.py")],
                    inputs.workdir, None)
    if res.returncode != 0:
        raise RuntimeError(f"calibration exited {res.returncode}")
    return res.wall_s


def at_reference_speed(pairs):
    """Median over (time, calibration time) pairs of time * CALIBRATION_REF_S
    / calibration time: the time at the baseline's machine speed.

    Other tenants of the shared machine slow every process on it, at times
    to under half speed, in spells lasting seconds to minutes. A calibration probe run
    just before a measurement sees the same spell, so the ratio of the two
    cancels most of it; the median then drops the spells that changed
    between probe and measurement.
    """
    if not pairs:
        return 0.0
    return statistics.median(t * CALIBRATION_REF_S / cal for t, cal in pairs)


def untraced_run(inputs, seconds):
    """Closed-loop CLI chains; (attempted, failed, metrics, notes)."""
    env = program_env(SRC)
    t_start = time.perf_counter()
    setup = []  # (set-up time, calibration time) pairs
    chains = []
    reference = None
    while len(chains) < MIN_CHAINS or (
            time.perf_counter() - t_start + max(c.wall for c in chains) <= seconds):
        t0 = time.perf_counter()
        calibration = measure_calibration(inputs)
        setup.append((measure_setup(inputs, env), calibration))
        chain_dir = prepare_chain_dir(inputs, "chain")
        chain = run_chain(chain_dir, env)
        chain.calibration_s = calibration
        out_dir = os.path.join(chain_dir, "out")
        if chain.ok:
            hashes = check_chain(chain, out_dir, inputs, reference)
            if chain.ok and reference is None:
                reference = hashes
        else:
            with open(os.path.join(chain_dir, "stderr.log"), encoding="utf-8",
                      errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        chain.wall = time.perf_counter() - t0
        chains.append(chain)
        for e in chain.errors:
            print(f"chain {len(chains)}: {e}", file=sys.stderr)

    while len(setup) < SETUP_REPEATS:
        calibration = measure_calibration(inputs)
        setup.append((measure_setup(inputs, env), calibration))

    good = [c for c in chains if c.ok] or chains
    samples = {"pipeline_s": [(sum(r.wall_s for r in c.commands.values()), c.calibration_s)
                              for c in good]}
    for cmd in COMMANDS:
        samples[f"{cmd}_s"] = [(c.commands[cmd].wall_s, c.calibration_s)
                               for c in good if cmd in c.commands]
    samples["setup_s"] = setup
    samples["cpu_s"] = [(sum(r.cpu_s for r in c.commands.values()), c.calibration_s)
                        for c in good]
    metrics = {name: (at_reference_speed(pairs), "s") for name, pairs in samples.items()}
    metrics["peak_rss_mb"] = (
        statistics.median([max(r.rss_mb for r in c.commands.values()) for c in good]), "MB")
    attempted = sum(c.attempted for c in chains)
    failed = sum(c.failed for c in chains)
    notes = {"chains": len(chains), "passing_chains": sum(c.ok for c in chains),
             "chain_wall_s": [{cmd: round(r.wall_s, 4) for cmd, r in c.commands.items()}
                              for c in chains],
             "chain_calibration_s": [round(c.calibration_s, 4) for c in chains],
             "setup_s": [[round(t, 4), round(cal, 4)] for t, cal in setup],
             "raw_median_s": {name: round(statistics.median(t for t, _ in pairs), 4)
                              for name, pairs in samples.items() if pairs}}
    return attempted, failed, metrics, notes


def traced_run(inputs):
    """In-process passes: an untraced warm-up, then a traced and an
    untraced pass taking turns command by command, so both run warm and
    share the machine's drift. Returns (attempted, failed, metrics, notes).
    """
    sys.path.insert(0, SRC)
    tracer = tracing.Tracer()
    dirs = [prepare_chain_dir(inputs, name) for name in ("warm", "traced", "plain")]
    lanes = [(dirs[1], tracer), (dirs[2], None)]
    try:
        tracing.run_commands([(dirs[0], None)])
        traced, plain = tracing.run_commands(lanes, COMMANDS[:2])
        # right after the traced train, so both see the same machine speed
        grad_s, steps = tracing.grad_seconds_per_step(dirs[1])
        for walls, more in zip((traced, plain), tracing.run_commands(lanes, COMMANDS[2:])):
            walls.update(more)
    except Exception as exc:  # the program failed: report it, keep the run alive
        print(f"traced run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1, 1, {}, {}
    attempted = 3 * len(COMMANDS)
    out_dir = os.path.join(dirs[1], "out")
    results = check_chain_outputs(out_dir, inputs.dataset, inputs.target_edges, inputs.k)
    reference = file_hashes(os.path.join(dirs[0], "out"))
    for d in dirs[1:]:
        results[f"same_bytes_{os.path.basename(d)}"] = check_same_bytes(
            reference, file_hashes(os.path.join(d, "out")))
    failed = 0
    for name, errors in results.items():
        attempted += 1
        failed += bool(errors)
        for e in errors:
            print(f"traced run: {name}: {e}", file=sys.stderr)
    if failed:
        return attempted, failed, {}, {}

    st = tracing.SpanStats(tracer.spans)
    coverage = {cmd: st.coverage(f"pipeline.{cmd}") for cmd in COMMANDS}
    for cmd, share in coverage.items():  # work moved out of the spans goes unseen
        attempted += 1
        if share < MIN_COVERAGE:
            failed += 1
            print(f"traced run: spans cover {100 * share:.1f}% of {cmd}, "
                  f"under {100 * MIN_COVERAGE:.0f}%", file=sys.stderr)
    if failed:
        return attempted, failed, {}, {}

    metrics = tracing.layer_metrics(st, out_dir, steps, grad_s)
    # median over commands, so one burst of machine noise does not decide it
    metrics["trace_overhead_pct"] = (
        100.0 * (statistics.median(traced[c] / plain[c] for c in COMMANDS) - 1.0), "%")
    metrics["trace_coverage_pct"] = (100.0 * min(coverage.values()), "%")
    gap, auc = fidelity(out_dir)
    metrics["metrics.clustering_gap"] = (gap, "abs")
    metrics["linkpred.auc"] = (auc, "ratio")
    notes = {"spans": len(tracer.spans),
             "coverage_pct": {c: round(100 * v, 2) for c, v in coverage.items()},
             "top_self_s": st.top_self_by_command()}
    return attempted, failed, metrics, notes


def environment():
    """What the numbers depend on besides the code: recorded, not changed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    pkg = os.path.join(SRC, "graphstitch")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "src_lines": src_lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=44.0,
                        help="measurement time for the untraced chain loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "graphstitch", "cli.py")):
        print(f"bench: no graphstitch source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", f"{workload.name}-s{args.seed}-p{os.getpid()}")
    try:
        inputs = make_inputs(workload, args.seed, workdir, SRC)
        if args.trace:
            attempted, failed, metrics, notes = traced_run(inputs)
        else:
            attempted, failed, metrics, notes = untraced_run(inputs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "real_edges": inputs.real_edges, "target_edges": inputs.target_edges,
                      "environment": environment(), **notes}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
