#!/usr/bin/env python3
"""gnorm benchmark: one closed-loop caller driving the public library.

    python3 perfbench/run.py --workload {norms-small,norms-large,decisions}
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and uses that checkout's ``src/gnorm``.
A run sets the workload up, warms every program once, then repeats whole
passes over the workload's fixed cycle of calls: as many as take about
``--seconds`` seconds at this commit (at least three, so that medians over
passes mean something; fewer if the machine is so slow that they would
take over 1.25 times as long).  It checks every output outside the timed
phase, and prints a readable report followed by one JSON line (the last
line of stdout).  Times are scaled to the machine's typical speed by a
calibration kernel timed next to each pass (see calibration.py); raw
times are printed beside them.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` makes half as many passes untraced, then as many
traced, and reports per-layer metrics.  Details (environment, fingerprint, per-item times and, when
traced, the span file) are written under ``.perfbench/`` in the checkout.
See perfbench/README.md.
"""

import argparse
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
from dataclasses import dataclass

import setup_cost  # standard library only; modules using numpy load after set-up is timed

OUT_DIR = setup_cost.ROOT / ".perfbench"
SETUP_SAMPLES = 3  # this process plus fresh ones; setup_s is their median
MIN_PASSES = 3
DEADLINE = 1.25  # stop making passes past this multiple of --seconds
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120


@dataclass
class Call:
    item: int
    seconds: float  # wall time as measured
    out: object
    error: str | None
    factor: float = 1.0  # speed calibration of the call's pass

    @property
    def scaled(self):
        return self.seconds * self.factor


@dataclass
class Segment:
    """The calls of consecutive passes, with each pass's wall time and
    speed calibration."""

    calls: list
    pass_s: list
    factors: list

    @property
    def scaled_pass_s(self):
        return [s * f for s, f in zip(self.pass_s, self.factors)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=setup_cost.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def fresh_setup_seconds(workload):
    """Cold set-up time measured in a new interpreter: (seconds, speed
    calibration factor)."""
    proc = subprocess.run(
        [sys.executable, str(setup_cost.ROOT / "perfbench" / "setup_cost.py"), workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    seconds, factor = proc.stdout.split()
    return float(seconds), float(factor)


def pass_count(workload, seconds):
    import workloads

    return max(MIN_PASSES, round(seconds / workloads.NOMINAL_PASS_S[workload]))


def run_passes(items, errors, passes, deadline, kernel, tracer=None, tag="p"):
    """``passes`` whole passes over ``items`` (at least MIN_PASSES, no more
    once ``deadline`` seconds have gone).  The machine's speed is calibrated
    between passes; a pass's factor is the mean of those before and after
    it."""
    calls, pass_times, factors = [], [], []
    start = time.perf_counter()
    before = kernel.factor()
    for _ in range(passes):
        if len(pass_times) >= MIN_PASSES and time.perf_counter() - start >= deadline:
            break
        first = len(calls)
        p0 = time.perf_counter()
        for idx, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = item.call()
                else:
                    out = tracer.call(f"{tag}{len(pass_times)}:{idx}", item.call)
                err = None
            except errors as exc:
                out, err = None, f"{type(exc).__name__}: {exc}"
            calls.append(Call(idx, time.perf_counter() - t0, out, err))
        pass_times.append(time.perf_counter() - p0)
        after = kernel.factor()
        factors.append(0.5 * (before + after))
        for c in calls[first:]:
            c.factor = factors[-1]
        before = after
    return Segment(calls, pass_times, factors)


def warm_up(items, errors):
    """Assemble and factor every program before timing (``max_iter=1``
    stops the solve after one iteration; the caches stay filled)."""
    for item in items:
        try:
            item.call(max_iter=1) if item.warm else item.call()
        except errors:
            pass


def check_calls(items, calls, tol):
    """Check every call; returns (failure reasons by call, first value per
    item).  The full check runs on an item's first output, repeats must
    reproduce its value."""
    import checks

    verdict, reasons = {}, []
    for c in calls:
        item = items[c.item]
        if c.error is not None:
            reason = c.error
        elif c.item not in verdict:
            reason = item.check(c.out)
            verdict[c.item] = (reason, None if reason else item.value(c.out))
        else:
            first_reason, first_value = verdict[c.item]
            reason = first_reason or checks.consistent(item.value(c.out), first_value, tol)
        reasons.append(reason)
    return reasons, {i: v for i, (_, v) in verdict.items()}


def tail(times_ms):
    """Highest percentile with at least TAIL_BEYOND calls beyond it:
    (value, percentile, calls).  With too few calls, the maximum."""
    s = sorted(times_ms)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def digest(values):
    """Hash of the per-item values rounded to six significant digits (the
    solve tolerance is 1e-7 relative)."""
    text = json.dumps([f"{float(v):.5e}" for v in values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=setup_cost.ROOT, capture_output=True, text=True,
            timeout=10, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(setup_cost.ROOT.parent)},
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def item_ms(n_items, calls, scaled=True):
    """Time of each call of the cycle, in ms, as the mean over its repeats:
    every pass repeats the same work, so repeats differ only by the
    machine's speed at the time."""
    return [
        1e3 * statistics.fmean(c.scaled if scaled else c.seconds for c in calls if c.item == i)
        for i in range(n_items)
    ]


def timings(n_items, seg, setup, scaled):
    """calls_per_s, call_ms_p50, call_ms_tail and setup_s, scaled to the
    typical machine speed or raw; plus the tail's percentile."""
    per_item = item_ms(n_items, seg.calls, scaled)
    tail_ms, tail_pct, _ = tail([per_item[c.item] for c in seg.calls])
    return {
        "calls_per_s": len(seg.calls) / sum(seg.scaled_pass_s if scaled else seg.pass_s),
        "call_ms_p50": statistics.median(per_item[c.item] for c in seg.calls),
        "call_ms_tail": tail_ms,
        "setup_s": statistics.median(s * f if scaled else s for s, f in setup),
    }, tail_pct


def end_to_end(n_items, seg, setup, peak_rss_mb, failed):
    """End-to-end metrics, their raw (unscaled) times, and the readable note
    printed beside each."""
    scaled, tail_pct = timings(n_items, seg, setup, scaled=True)
    raw, _ = timings(n_items, seg, setup, scaled=False)
    units = {"calls_per_s": "1/s", "call_ms_p50": "ms", "call_ms_tail": "ms", "setup_s": "s"}
    metrics = {name: metric(v, units[name]) for name, v in scaled.items()}
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    n, passes = len(seg.calls), len(seg.pass_s)
    notes = {name: f"raw {v:.6g}" for name, v in raw.items()}
    notes["calls_per_s"] += f"; {n} calls in {passes} passes"
    notes["call_ms_p50"] += f"; median of {n} calls, each the mean of its {passes} repeats"
    notes["call_ms_tail"] += f"; p{tail_pct:.1f} of {n} calls"
    notes["setup_s"] += f"; median of {len(setup)} fresh processes"
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    notes["failed_frac"] = f"{failed} of {n} calls (JSON: failed / attempted)"
    shown = dict(metrics, failed_frac=metric(failed / n, "fraction"))
    return metrics, shown, notes, raw


def per_layer(tracer, items, plain, traced, check_s):
    """Per-layer metrics of the traced segment, plus the readable self-time
    table that accounts for its wall time."""
    import tracing
    import workloads

    passes = len(traced.pass_s)
    segment = {s.item for s in tracer.spans if s.item.startswith("t")}
    layers, self_s = tracing.layer_metrics(
        tracer.spans, segment, passes, workloads.SWEEP_PRIORS
    )
    layers["oracles.check_s"] = check_s
    typical = statistics.median(plain.scaled_pass_s)
    layers["trace.overhead_frac"] = (statistics.median(traced.scaled_pass_s) - typical) / typical
    metrics = {name: metric(v, tracing.UNITS[name]) for name, v in layers.items()}

    wall = sum(traced.pass_s)
    rows = dict(self_s, **{"(loop)": wall - sum(self_s.values())})
    table = ["self time by layer over the traced segment:"]
    table += [f"  {k:<10} {v:9.3f} s  {100 * v / wall:5.1f} %" for k, v in rows.items()]
    table.append(
        f"  traced pass {statistics.median(traced.scaled_pass_s):.3f} s, untraced pass "
        f"{typical:.3f} s (scaled medians of {passes})"
    )
    return metrics, table, self_s


def main(argv=None):
    args = parse_args(argv)
    setup_cost.use_checkout_gnorm()

    # Cold set-up in this (fresh) process; traced runs record its spans.
    t0 = time.perf_counter()
    gnorm = setup_cost.import_gnorm()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(gnorm)
    sections = setup_cost.build_sections(gnorm, args.workload)
    setup_s = time.perf_counter() - t0

    import calibration
    import workloads

    kernel = calibration.Kernel()
    setup = [(setup_s, kernel.factor())]
    if tracer is not None:
        tracer.uninstall()
    else:
        setup += [fresh_setup_seconds(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    errors = gnorm.GnormError
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        items = workloads.build(gnorm, args.workload, sections, args.seed, workdir)
        warm_up(items, errors)
        if tracer is None:
            passes = pass_count(args.workload, args.seconds)
            timed = [run_passes(items, errors, passes, DEADLINE * args.seconds, kernel)]
        else:
            passes = pass_count(args.workload, args.seconds / 2)
            plain = run_passes(items, errors, passes, DEADLINE * args.seconds / 2, kernel)
            tracer.install(gnorm)
            traced = run_passes(items, errors, len(plain.pass_s), float("inf"), kernel,
                                tracer=tracer, tag="t")
            tracer.uninstall()
            timed = [plain, traced]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        c0 = time.perf_counter()
        all_calls = [c for seg in timed for c in seg.calls]
        reasons, first_values = check_calls(items, all_calls, workloads.TOL)
        check_s = time.perf_counter() - c0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(all_calls)
    failed = sum(r is not None for r in reasons)
    seg = timed[-1]
    fingerprint = {"values_digest": digest(first_values[i] for i in sorted(first_values))}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "cycle": [item.name for item in items], "pass_s": seg.pass_s,
        "speed_factors": seg.factors, "attempted": attempted, "failed": failed,
        "failures": sorted({r for r in reasons if r is not None}),
        "item_ms": dict(zip((item.name for item in items), item_ms(len(items), seg.calls))),
        "fingerprint": fingerprint,
        "oracles.check_s": check_s,
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"{len(seg.pass_s)} passes x {len(items)} calls",
    ]
    if tracer is None:
        metrics, shown, notes, raw = end_to_end(len(items), seg, setup, peak_rss_mb, failed)
        details.update(raw=raw, setup=setup)
    else:
        metrics, table, self_s = per_layer(tracer, items, timed[0], timed[1], check_s)
        shown, notes = metrics, {}
        span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_path)
        details.update(span_file=str(span_path), layer_self_s=self_s)
        fingerprint["solver.iters_total"] = metrics["solver.iters_total"]["value"]
        lines += table

    lines += [
        f"  {name:<26} {m['value']:14.6g} {m['unit']:<9} {notes.get(name, '')}"
        for name, m in shown.items()
    ]
    details["metrics"] = metrics
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(details, indent=1))
    lines += [
        f"fingerprint {json.dumps(fingerprint)}",
        f"environment {json.dumps(details['environment'])}",
        f"details {out_path}",
    ]
    for reason in details["failures"][:10]:
        print(f"perfbench: failed check: {reason}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
