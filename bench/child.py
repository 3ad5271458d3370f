"""One repetition of a benchmark workload, run in a fresh interpreter.

Usage: python3 bench/child.py ROOT CONFIG OUT_DIR REP_DIR TRACE SETUPS

Imports ``dpgrr`` from ``ROOT/src``, then times one ``dpgrr run`` call
in process, so interpreter start-up and imports are not measured.  After
it, SETUPS more calls stop at the first entry into the engine, so that
a short set-up is measured several times.  It writes
``REP_DIR/result.json`` and, when TRACE is 1, ``REP_DIR/spans.npz``.

Untraced times are in reference seconds (see ``SpeedClock``): the host
is a shared VM whose per-core speed swings by up to 2x within seconds,
so raw wall time says more about the neighbours than about the program.

The trace is taken from outside the package: each target below is
replaced, at the binding its caller looks up at call time, by a wrapper
that records one span (name, start, end, parent).  Spans are kept in
flat arrays and written out after the timed call.  A target that the
code no longer has is skipped, so its layer reports zero calls.
"""

from __future__ import annotations

import importlib
import json
import platform
import resource
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

# (module, attribute path, span name)
TRACE_TARGETS = (
    ("dpgrr.cli", "run", "engine.run"),
    ("dpgrr.engine", "run_epoch_dpgrr", "engine.epoch"),
    ("dpgrr.engine", "run_epoch_dgm", "engine.epoch"),
    ("dpgrr.engine", "sample_value_grad", "objectives.grad"),
    # the engine records rows through `objectives.full_objective`
    ("dpgrr.objectives", "full_objective", "objectives.record"),
    ("dpgrr.engine", "epoch_indices", "sampling.draw"),
    ("dpgrr.metrics", "consensus_quantity", "metrics.consensus"),
    ("dpgrr.netgraph", "ScheduleCursor.weights_for_epoch", "netgraph.mix_weights"),
    ("dpgrr.engine", "consensus_weights_for_epoch", "netgraph.mix_weights"),
    ("dpgrr.netgraph", "GraphSchedule.transition_product", "netgraph.mix_weights"),
    ("dpgrr.cli", "validate_schedule", "netgraph.validate"),
    ("dpgrr.engine", "prox", "proxops.prox"),
    ("dpgrr.engine", "subgradient", "proxops.subgrad"),
    ("dpgrr.proxops", "Regularizer.subgradient_bound", "proxops.subgrad"),
    ("dpgrr.cli", "solve_centralized", "reference.solve"),
    ("dpgrr.cli", "load_fixtures", "reference.fixture"),
    ("dpgrr.cli", "fixture_x_star", "reference.fixture"),
    ("dpgrr.cli", "load_config", "config.load"),
    ("dpgrr.cli", "build_problem", "config.build"),
    ("dpgrr.cli", "write_metrics_csv", "cli.csv_write"),
)


class SpeedClock:
    """Wall time rescaled by the speed the CPU has at that moment.

    Every ``PERIOD`` seconds a SIGALRM handler runs a fixed calibration
    kernel, independent of ``dpgrr``: a few dense proximal-gradient steps
    of logistic regression on a 40x123 matrix, the kind of small numpy
    calls the program makes.  Each stretch of time between two bursts
    counts ``NOMINAL_S / kernel time``, smoothed over the neighbouring
    bursts, reference seconds per second; the bursts themselves count
    nothing.  One reference second is thus the time the CPU needs for
    ``1 / NOMINAL_S`` kernel calls.  When disabled, the clock counts
    plain wall time.
    """

    PERIOD = 0.1
    NOMINAL_S = 0.7e-3  # kernel time in a typical phase of the 2-vCPU host
    SMOOTH = 5  # bursts in the running median of kernel times

    def __init__(self, enabled: bool) -> None:
        import numpy as np

        self.enabled = enabled
        self.starts: list[float] = []
        self.ends: list[float] = []
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((40, 123))
        self._y = np.sign(rng.standard_normal(40))

    def _kernel(self) -> float:
        import numpy as np

        a, y = self._a, self._y
        x = np.full(a.shape[1], 0.01)
        total = 0.0
        for _ in range(24):
            z = a @ x
            total += float(np.logaddexp(0.0, -y * z).sum())
            g = a.T @ (-y / (1.0 + np.exp(y * z)))
            v = x - 0.01 * g
            x = np.sign(v) * np.maximum(np.abs(v) - 1e-4, 0.0)
        return total

    def mark(self) -> None:
        """Run one calibration burst now."""
        if self.enabled:
            self.starts.append(time.perf_counter())
            self._kernel()
            self.ends.append(time.perf_counter())

    def _on_alarm(self, signum, frame) -> None:
        self.mark()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD)

    def start(self) -> None:
        self.mark()
        if self.enabled:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD)

    def stop(self) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.mark()

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds in [t0, t1], which bursts must bracket."""
        if not self.enabled:
            return t1 - t0
        kernel = [e - s for s, e in zip(self.starts, self.ends)]
        half = self.SMOOTH // 2
        rate = [self.NOMINAL_S / statistics.median(kernel[max(0, i - half):i + half + 1])
                for i in range(len(kernel))]
        total = 0.0
        for i in range(1, len(kernel)):
            lo, hi = max(self.ends[i - 1], t0), min(self.starts[i], t1)
            if hi > lo:
                total += (hi - lo) * 0.5 * (rate[i - 1] + rate[i])
        return total

    def speed(self) -> float:
        """Median calibration speed over the run, relative to the nominal."""
        kernel = [e - s for s, e in zip(self.starts, self.ends)]
        return self.NOMINAL_S / statistics.median(kernel) if kernel else 1.0


class SetupDone(BaseException):
    """Ends a set-up-only call at the first entry into the engine."""


class Tracer:
    """In-memory span recorder; spans nest through a single call stack."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"solve_iters": 0, "csv_bytes": 0}

    def wrap(self, module: str, path: str, span: str, on_return=None) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return
        if span not in self.span_names:
            self.span_names.append(span)
        name_id = self.span_names.index(span)
        names, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        hooks = {
            "reference.solve": self._count_iterations,
            "cli.csv_write": self._count_bytes,
        }
        for module, path, span in TRACE_TARGETS:
            self.wrap(module, path, span, hooks.get(span))

    def _count_iterations(self, args, result) -> None:
        self.counters["solve_iters"] += int(getattr(result, "iterations", 0))

    def _count_bytes(self, args, result) -> None:
        if args and isinstance(args[0], (str, Path)) and Path(args[0]).is_file():
            self.counters["csv_bytes"] += Path(args[0]).stat().st_size

    def dump(self, path: Path) -> None:
        import numpy as np

        np.savez(
            path,
            span_names=np.array(self.span_names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def main(argv: list[str]) -> int:
    root, config, out_dir, rep_dir, trace, setups = argv
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import dpgrr
    import dpgrr.cli as cli

    if not Path(dpgrr.__file__).resolve().is_relative_to(src):
        print(f"dpgrr imported from {dpgrr.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    # a traced repetition keeps plain wall time: bursts would land in spans
    clock = SpeedClock(enabled=tracer is None)

    # setup ends at the first entry into the engine, looked up as `cli.run`
    engine_run = cli.run
    entries: list[float] = []
    stop_at_entry = False

    def timed_run(*args, **kwargs):
        if len(entries) == calls:
            entries.append(time.perf_counter())
            if stop_at_entry:
                raise SetupDone
        return engine_run(*args, **kwargs)

    cli.run = timed_run

    calls = 0
    clock.start()
    t0 = time.perf_counter()
    rc = cli.main(["run", "--config", config, "--output", out_dir, "-q"])
    t1 = time.perf_counter()
    clock.stop()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    first_entry = entries[0] if entries else None

    # set-up only: the same config, stopped before the engine runs
    stop_at_entry = True
    setup_times = []
    for calls in range(1, 1 + int(setups) if rc == 0 else 1):
        clock.mark()
        s0 = time.perf_counter()
        try:
            cli.main(["run", "--config", config, "--output",
                      str(Path(rep_dir) / "setup_out"), "-q"])
        except SetupDone:
            pass
        clock.mark()
        if len(entries) != calls + 1:
            print("a set-up-only call did not reach the engine", file=sys.stderr)
            return 4
        setup_times.append(clock.seconds(s0, entries[-1]))

    result = {
        "rc": rc,
        "wall_s": clock.seconds(t0, t1),
        "wall_raw_s": t1 - t0,
        "setup_s": clock.seconds(t0, first_entry) if first_entry else None,
        "setups_s": setup_times,
        "speed": clock.speed(),
        "peak_rss_kib": peak_rss_kib,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.dump(Path(rep_dir) / "spans.npz")
        result["counters"] = tracer.counters
    (Path(rep_dir) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
