"""The benchmark's three workloads: set-up, units of work and output checks.

Every workload reports every end-to-end metric. A run sets up its inputs,
then runs its own action for --seconds with the other user actions (two more
set-ups, two train commands, two evals, 16 streamed sequences) spread evenly
over the same time. ``HostSpeed`` samples the host's speed throughout every
timed unit. The own actions:

  data_slide       own action: gen-data slide_behind, then eval oracle
  train_hiding12   own action: train mvp on 12-view object_hiding
  stream_hiding64  own action: forward_step over a 64-view object_hiding
                   sequence, mvp then mvt

The traced run repeats only the own action, alternating untraced and traced
units, so the per-layer figures describe the workload's own path.

Functions of the package under test are reached through their modules
(``cli.main``, ``model.forward_step``) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shapestream import checkpoint, cli, model, scenes, voxel
from shapestream.objects import OBJECT_KINDS

import tracer

WORKLOADS = ("data_slide", "train_hiding12", "stream_hiding64")
RES = 16
STREAM_VARIANTS = ("mvp", "mvt")
STREAM_TOLERANCE = 1e-9

END_TO_END = {
    "setup_s": "s",
    "gen_frames_per_s": "frames/s",
    "eval_frames_per_s": "frames/s",
    "train_frames_per_s": "frames/s",
    "train_loss_final": "nats",
    "stream_mvp_step_ms_p50": "ms",
    "stream_mvt_step_ms_p50": "ms",
    "stream_mvp_state_bytes": "bytes",
    "stream_mvt_state_bytes": "bytes",
    "peak_rss_mb": "MB",
}
RAW_ONLY = {"stream_mvp_step_ms_p99": "ms", "stream_mvt_step_ms_p99": "ms"}   # see figures


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones the smoke test."""

    slide_objects: int = 5        # gen-data --objects for one data_slide cycle
    views: int = 12               # views per 12-view sequence and --train-views
    hide_objects: int = 10        # 12-view object_hiding dataset (8/1/1 split)
    stream_objects: int = 5       # 64-view object_hiding sequences
    stream_views: int = 64        # the longest stream the default max_views allows
    train_steps: int = 8          # one epoch over the 8 train sequences
    stream_calls: int = 1000      # minimum forward_step calls per variant
    eval_points: int = 2048       # eval --points (the CLI default)
    setup_reps: int = 3


class Tally:
    """Attempted and failed operations; an operation is a command, a
    forward_step call or one output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def guard(self, what: str, fn, *args):
        """Run ``fn``; an exception counts one failed operation. The checks
        inside ``fn`` count their own attempts."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{what} raised")
            return None


def run_cli(tally: Tally, host: "HostSpeed", argv: list) -> "Timing":
    """Time one shapestream command; a non-zero exit fails it."""
    with host.timing() as timing, contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = -1
    tally.check(code == 0, f"{argv[0]} exited {code}")
    return timing


def quota_seed(protocol: str, n_objects: int, views: int, rng: np.random.Generator) -> int:
    """First gen-data seed drawn from ``rng`` whose objects hold every kind
    equally often: OBJECT_KINDS[0], OBJECT_KINDS[1], ... (cyclic).

    gen-data draws kinds uniformly; kind sets the raycaster's cost (a union
    tests 2-3 parts, a sphere one), so fixing the mix at its expected value
    keeps throughput comparable across workload seeds, which still choose
    sizes, rotations, splits and slide paths.
    """
    want = sorted(OBJECT_KINDS[i % len(OBJECT_KINDS)] for i in range(n_objects))
    while True:
        seed = int(rng.integers(0, 2 ** 31 - 1))
        manifest = scenes.build_manifest(protocol, n_objects, RES, views, seed)
        if sorted(o.kind for o in manifest.objects) == want:
            return seed


# ---------------------------------------------------------------------------
# set-up: the object_hiding datasets every workload uses
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    hide12: Path          # 12-view dataset for training and the eval pass
    streams: list         # 64-frame sequences of VoxelGrid for streaming
    gen: list             # (frames, Timing) of each gen-data command


def set_up(work: Path, seed: int, sizes: Sizes, tally: Tally, host: HostSpeed) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    hide_seed = quota_seed("object_hiding", sizes.hide_objects, sizes.views, rng)
    stream_seed = quota_seed("object_hiding", sizes.stream_objects, sizes.stream_views, rng)
    hide12, hide64 = work / "hide12", work / "hide64"
    gen = []
    for out, objects, views, gen_seed in ((hide12, sizes.hide_objects, sizes.views, hide_seed),
                                          (hide64, sizes.stream_objects, sizes.stream_views,
                                           stream_seed)):
        gen.append((objects * views, run_cli(tally, host, [
            "gen-data", "--protocol", "object_hiding", "--objects", str(objects),
            "--res", str(RES), "--views", str(views), "--seed", str(gen_seed),
            "--out", str(out)])))
    manifest = scenes.read_manifest(hide64)
    streams = [scenes.read_sequence_grids(hide64, manifest, spec)[0]
               for spec in manifest.sequences]
    return Inputs(hide12, streams, gen)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_oracle_report(tally: Tally, out: Path, frames: int) -> None:
    """The oracle scores J = F = 1 on every frame; a flagged frame fails."""
    with open(out / "frames.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    tally.check(len(rows) == frames, f"eval wrote {len(rows)} rows, expected {frames}")
    for row in rows:
        tally.check(float(row["jaccard"]) == 1.0 and float(row["fscore"]) == 1.0,
                    f"oracle frame {row['seq_id']}/{row['frame']} scored "
                    f"J={row['jaccard']} F={row['fscore']}")
    summary = json.loads((out / "summary.json").read_text())
    tally.check(summary["flagged_frames"] == 0,
                f"{summary['flagged_frames']} flagged frames")


def check_dataset(tally: Tally, data: Path, scratch: Path) -> None:
    """Inputs are subsets of targets, and every .vxg reads back identical."""
    manifest = scenes.read_manifest(data)
    for spec in manifest.sequences:
        frames, targets = scenes.read_sequence_grids(data, manifest, spec)
        for i, (frame, target) in enumerate(zip(frames, targets)):
            tally.check(bool(np.all(frame.occupancy() <= target.occupancy())),
                        f"{spec.seq_id} frame {i}: input not a subset of target")
    copy = scratch / "roundtrip.vxg"
    for path in sorted(data.glob("*.vxg")):
        voxel.write_vxg(voxel.read_vxg(path), copy)
        tally.check(copy.read_bytes() == path.read_bytes(),
                    f"{path.name} does not read back identical")


def check_training(tally: Tally, out: Path, data: Path, steps: int) -> float:
    """Finite loss at every step; the checkpoint loads and predicts in (0, 1).
    Returns the mean train loss over the final epoch."""
    with open(out / "metrics.csv", newline="") as f:
        losses = [float(r["loss"]) for r in csv.DictReader(f) if r["split"] == "train"]
    tally.check(len(losses) == steps, f"{len(losses)} train rows for {steps} steps")
    for i, loss in enumerate(losses):
        tally.check(math.isfinite(loss), f"step {i + 1}: loss {loss}")
    manifest = scenes.read_manifest(data)
    trained = checkpoint.load_model(out / "checkpoint.mvpc")
    spec = manifest.split_sequences("val")[0]
    state = trained.init_state()
    for frame in scenes.read_sequence_grids(data, manifest, spec)[0]:
        pred, state = model.forward_step(trained, state, frame)
        v = pred.values
        tally.check(bool(np.all(np.isfinite(v)) and v.min() > 0.0 and v.max() < 1.0),
                    "checkpoint prediction outside (0, 1)")
    epoch = len(manifest.split_sequences("train"))
    tail = losses[-epoch:] or [math.nan]
    return statistics.fmean(tail)


# ---------------------------------------------------------------------------
# units of work: one command or one streamed sequence, timed, then checked
# ---------------------------------------------------------------------------

NO_TRACE = contextlib.nullcontext()


@dataclass
class Timing:
    """One timed unit: the wall its work took and the host speed across it."""

    wall: float = 0.0     # seconds, the probes' own time excluded
    scale: float = 1.0    # HostSpeed.NOMINAL_S over the mean probe of the unit

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


class HostSpeed:
    """Samples the host's speed throughout an untraced run.

    The shared 2-vCPU host this benchmark was built on changes speed by up to
    1.7x for seconds to minutes at a time, in CPU time as well as wall time.
    A probe is a fixed Python and NumPy task of a few milliseconds that runs
    no shapestream code. It runs at both ends of every timed unit and, inside
    ``running()``, from an interval timer every INTERVAL_S, so a unit of
    several seconds is sampled throughout. A unit's wall leaves out the time
    of the probes inside it; its scale is NOMINAL_S over the mean of every
    probe from its start to its end, and wall times scale reports the unit at
    one fixed host speed. An inactive HostSpeed (the traced run) probes
    nothing and scales by 1.
    """

    NOMINAL_S = 0.0025   # about the probe's wall on the development host at its fastest
    INTERVAL_S = 0.2

    def __init__(self, active: bool = True):
        self.active = active
        self.probes: list = []    # the wall of every probe, in order
        self.spent = 0.0          # their sum
        self._busy = False
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((64, 64)) / 8
        self._x = rng.standard_normal((16, 64))
        self._a = rng.standard_normal((64, 3))
        self._b = rng.standard_normal((1024, 3))

    def probe(self) -> None:
        if not self.active or self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            x = self._x
            for _ in range(25):
                x = np.tanh(x @ self._w)
            total = 0
            for i in range(2500):
                total += i * i
            ((self._a[:, None, :] - self._b[None]) ** 2).sum(axis=2).min(axis=1)
            wall = time.perf_counter() - t0
            self.probes.append(wall)
            self.spent += wall
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S inside the block, from SIGALRM."""
        if not self.active:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def timing(self):
        """Time the block; the Timing is filled in when it ends."""
        timing = Timing()
        first = len(self.probes)
        self.probe()
        spent, t0 = self.spent, time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall = time.perf_counter() - t0 - (self.spent - spent)
            self.probe()
            if len(self.probes) > first:
                timing.scale = self.NOMINAL_S / statistics.fmean(self.probes[first:])


class Rate:
    """Work over wall time, raw and scaled to the reference host speed."""

    def __init__(self):
        self.work, self.raw_s, self.scaled_s = 0, 0.0, 0.0

    def add(self, work: float, timing: Timing) -> None:
        self.work += work
        self.raw_s += timing.wall
        self.scaled_s += timing.scaled


class Session:
    """One run's inputs, operation tally and timing accumulators. Each unit
    method times its work inside ``ctx`` (the tracer, or nothing), checks
    the outputs after it and returns the wall seconds of the work."""

    def __init__(self, tally: Tally, work: Path, seed: int, sizes: Sizes, host: HostSpeed):
        self.tally, self.work, self.seed, self.sizes, self.host = tally, work, seed, sizes, host
        self.inputs: Inputs | None = None
        self.setups: list = []          # Timing of each set-up
        self.setup_gen = Rate()         # frames of set-up gen-data
        self.gen, self.eval, self.trained = Rate(), Rate(), Rate()
        self.train_loss = math.nan
        self.nets = {v: model.build_model(model.ModelConfig(variant=v, seed=seed))
                     for v in STREAM_VARIANTS}
        self.latencies: dict = {v: [] for v in STREAM_VARIANTS}   # Timing per call
        self.state_bytes: dict = {}
        self._dirs = 0

    def _dir(self, stem: str) -> Path:
        self._dirs += 1
        return self.work / f"{stem}{self._dirs}"

    def setup(self, index: int) -> float:
        """Make the object_hiding inputs; the first set-up is kept, later
        ones only timed."""
        scratch = self._dir("setup")
        with self.host.timing() as timing:
            inputs = set_up(scratch, self.seed, self.sizes, self.tally, self.host)
        self.setups.append(timing)
        for frames, gen in inputs.gen:
            self.setup_gen.add(frames, gen)
        if self.inputs is None:
            self.inputs = inputs
        else:
            shutil.rmtree(scratch)
        return timing.wall

    def slide(self, index: int, ctx=NO_TRACE) -> float:
        """gen-data slide_behind, then eval oracle on its train split."""
        n, views = self.sizes.slide_objects, self.sizes.views
        gen_seed = quota_seed("slide_behind", n, views,
                              np.random.default_rng([self.seed, 2, index]))
        data, out = self._dir("slide"), self._dir("eval")
        with ctx:
            gen = run_cli(self.tally, self.host, [
                "gen-data", "--protocol", "slide_behind", "--objects", str(n),
                "--res", str(RES), "--views", str(views), "--seed", str(gen_seed),
                "--out", str(data)])
            scored = run_cli(self.tally, self.host, [
                "eval", "--checkpoint", "oracle", "--data", str(data), "--split", "train",
                "--points", str(self.sizes.eval_points), "--seed", str(gen_seed),
                "--out", str(out)])

        def check():
            manifest = scenes.read_manifest(data)
            frames = len(manifest.split_sequences("train")) * views
            self.gen.add(len(manifest.sequences) * views, gen)
            self.eval.add(frames, scored)
            check_dataset(self.tally, data, self.work)
            check_oracle_report(self.tally, out, frames)
        self.tally.guard("slide outputs", check)
        shutil.rmtree(data, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        return gen.wall + scored.wall

    def evaluate(self, index: int, ctx=NO_TRACE) -> float:
        """eval oracle on the 12-view dataset's val split."""
        data, out = self.inputs.hide12, self._dir("eval")
        with ctx:
            timing = run_cli(self.tally, self.host, [
                "eval", "--checkpoint", "oracle", "--data", str(data), "--split", "val",
                "--points", str(self.sizes.eval_points), "--seed", str(self.seed),
                "--out", str(out)])

        def check():
            frames = len(scenes.read_manifest(data).split_sequences("val")) * self.sizes.views
            self.eval.add(frames, timing)
            check_oracle_report(self.tally, out, frames)
        self.tally.guard("eval outputs", check)
        shutil.rmtree(out, ignore_errors=True)
        return timing.wall

    def train(self, index: int, ctx=NO_TRACE) -> float:
        """train mvp on 12 views with a validation split and checkpointing."""
        data, out, steps = self.inputs.hide12, self._dir("train"), self.sizes.train_steps
        with ctx:
            timing = run_cli(self.tally, self.host, [
                "train", "--data", str(data), "--out", str(out), "--variant", "mvp",
                "--train-views", str(self.sizes.views), "--steps", str(steps),
                "--val-every", str(max(steps // 2, 1)), "--seed", str(self.seed)])
        self.trained.add(steps * self.sizes.views, timing)
        loss = self.tally.guard("train outputs", check_training, self.tally, out, data, steps)
        self.train_loss = math.nan if loss is None else loss
        shutil.rmtree(out, ignore_errors=True)
        return timing.wall

    def stream(self, index: int, ctx=NO_TRACE) -> float:
        """forward_step over one sequence, mvp then mvt on the same frames; the
        first sequence is checked against the unrolled pass."""
        frames = self.inputs.streams[index % len(self.inputs.streams)]
        kept = {v: [] if index == 0 else None for v in STREAM_VARIANTS}
        calls = {v: [] for v in STREAM_VARIANTS}
        with ctx, self.host.timing() as timing:
            for v, net in self.nets.items():
                state = stream_sequence(self.tally, self.host, net, frames, calls[v], kept[v])
                self.state_bytes[v] = state.nbytes
        for v, walls in calls.items():
            self.latencies[v].extend(Timing(w, timing.scale) for w in walls)
        if index == 0:
            for v, net in self.nets.items():
                self.tally.guard("stream check", check_stream, self.tally, net, frames,
                                 kept[v])
        return timing.wall


def stream_sequence(tally: Tally, host: HostSpeed, net, frames: list, latencies: list,
                    keep: list | None = None) -> model.SequenceState:
    """forward_step over one sequence, timing each call without the probes
    inside it; ``keep`` collects (prediction, state bytes) per frame for the
    checks."""
    state = net.init_state()
    for frame in frames:
        spent, t0 = host.spent, time.perf_counter()
        try:
            pred, state = model.forward_step(net, state, frame)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally.check(False, "forward_step raised")
            return state
        latencies.append(time.perf_counter() - t0 - (host.spent - spent))
        tally.check(True, "forward_step")
        if keep is not None:
            keep.append((pred.values, state.nbytes))
    return state


def check_stream(tally: Tally, net, frames: list, kept: list) -> None:
    """Streamed predictions equal the unrolled pass; mvp state is constant."""
    unrolled = model.sequence_predictions(net, frames)
    worst = max(float(np.max(np.abs(u.data - s))) for u, (s, _) in zip(unrolled, kept))
    tally.check(len(kept) == len(frames) and worst <= STREAM_TOLERANCE,
                f"{net.config.variant}: streamed vs unrolled differ by {worst:.3g}")
    if net.config.variant == "mvp":
        tally.check(len({n for _, n in kept}) == 1, "mvp state bytes changed over the stream")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

# The workload's own action fills --seconds; the other actions are spread
# evenly over the same time, each run as soon as it falls behind its share.
# On a shared host whose speed drifts for seconds at a time, spreading every
# action over the whole run keeps one slow stretch off any single metric.
PLANS = {
    "data_slide": ("slide", ("setup", "train", "stream")),
    "train_hiding12": ("train", ("setup", "evaluate", "stream")),
    "stream_hiding64": ("stream", ("setup", "train", "evaluate")),
}


def figures(session: Session, gen: Rate, scaled: bool) -> dict:
    """The timed end-to-end metrics, at the reference host speed or raw.

    The p99 step latencies are reported raw only, and are not in the result
    record: on the shared host the 1% tail is set by its bursts of
    interference (10-run spreads of 0.15 to 0.34, raw or scaled), which is
    wider than any bound a regression check could use.
    """
    def at(timing: Timing):
        return timing.scaled if scaled else timing.wall

    def rate(r: Rate):
        return r.work / (r.scaled_s if scaled else r.raw_s)

    values = {"setup_s": statistics.median(at(t) for t in session.setups),
              "gen_frames_per_s": rate(gen), "eval_frames_per_s": rate(session.eval),
              "train_frames_per_s": rate(session.trained)}
    for v in STREAM_VARIANTS:
        calls = session.latencies[v]
        values[f"stream_{v}_step_ms_p50"] = float(
            np.percentile([1e3 * at(t) for t in calls], 50))
        if not scaled:
            values[f"stream_{v}_step_ms_p99"] = float(
                np.percentile([1e3 * t.wall for t in calls], 99))
    return values


def measure(name: str, seed: int, seconds: float, work: Path, sizes: Sizes,
            tally: Tally) -> tuple[dict, dict, dict]:
    """Untraced run: every end-to-end metric at the reference host speed,
    the same figures raw, and sample counts."""
    host = HostSpeed()
    session = Session(tally, work, seed, sizes, host)
    main, others = PLANS[name]
    done = {unit: 0 for unit in ("setup", "slide", "evaluate", "train", "stream")}

    def unit(kind: str) -> float:
        done[kind] += 1
        return getattr(session, kind)(done[kind] - 1)

    quota = {"setup": sizes.setup_reps, "train": 2, "evaluate": 2,
             "stream": math.ceil(sizes.stream_calls / sizes.stream_views)}
    main_walls: list = []
    with host.running():
        unit("setup")
        start = time.perf_counter()
        while True:
            share = min((time.perf_counter() - start) / seconds, 1.0)
            behind = {k: share - done[k] / quota[k] for k in others}
            kind = max(behind, key=behind.get)
            if behind[kind] > 0:
                unit(kind)
            elif (not main_walls or time.perf_counter() - start
                  + statistics.median(main_walls) <= seconds):
                main_walls.append(unit(main))
            else:
                break
        for kind in others:
            while done[kind] < quota[kind]:
                unit(kind)
        while min(map(len, session.latencies.values())) < sizes.stream_calls:
            unit("stream")

    gen = session.gen if name == "data_slide" else session.setup_gen
    values = figures(session, gen, scaled=True)
    values["train_loss_final"] = session.train_loss
    for v in STREAM_VARIANTS:
        values[f"stream_{v}_state_bytes"] = session.state_bytes[v]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {f"{kind}_units": n for kind, n in done.items()}
    samples.update({f"stream_{v}_calls": len(l) for v, l in session.latencies.items()})
    samples["host_probes"] = len(host.probes)
    samples["host_scale_median"] = HostSpeed.NOMINAL_S / statistics.median(host.probes)
    return values, figures(session, gen, scaled=False), samples


def measure_traced(name: str, seed: int, seconds: float, work: Path, sizes: Sizes,
                   tally: Tally) -> tuple[dict, dict, dict]:
    """Traced run: alternate untraced and traced units of the workload's own
    action on the same inputs; per-layer figures are per traced unit."""
    session = Session(tally, work, seed, sizes, HostSpeed(active=False))
    session.setup(0)
    action = getattr(session, PLANS[name][0])
    tr = tracer.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(action(len(traced)))
        traced.append(action(len(traced), tr.installed()))
    values = tr.per_unit()
    values["trace.overhead_ratio"] = statistics.median(t / p for t, p in zip(traced, plain))
    values["trace.uncovered_ms"] = 1e3 * (sum(traced) - tr.covered_s) / len(traced)
    samples = {"traced_units": len(traced), "absent": tr.absent,
               "untraced_unit_s": statistics.median(plain),
               "traced_unit_s": statistics.median(traced)}
    if values["cli.main.calls"]:
        # on the CLI workloads cli.main is the top-level span, so uncovered_ms
        # is ~0 by construction; the share of cli.main's time that no traced
        # layer accounts for says how much of the command the layers cover
        samples["cli_main_self_share"] = (values["cli.main.self_ms"] * len(traced)
                                          / (1e3 * tr.covered_s))
    return values, {}, samples


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        sizes: Sizes = Sizes()) -> dict:
    """One workload run; returns the result record (metrics with units)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    tally = Tally()
    work.mkdir(parents=True, exist_ok=False)
    try:
        if trace:
            values, raw, samples = measure_traced(name, seed, seconds, work, sizes, tally)
            units = tracer.metric_units()
        else:
            values, raw, samples = measure(name, seed, seconds, work, sizes, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
        "raw": {k: {"value": v, "unit": {**END_TO_END, **RAW_ONLY}[k]}
                for k, v in raw.items()},
        "samples": samples,
        "failures": tally.notes,
    }
