"""End-to-end and per-layer benchmark of cachediff.

Run from the repository root:

    python3 perfbench/run.py --workload baseline --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 perfbench/run.py --make-references

A run is a closed loop of client processes, as many as give the workload
every core of the host (cores // pool workers, at least one), each pinned
to its own core when there are several.  Clients set up, start together
and denoise clips for ``--seconds`` seconds; every final latent is checked
against the committed reference of its workload and seed.  Keeping every
core busy matters on a shared VM: with one of two cores idle, the speed of
the busy one was seen to swing by a third from minute to minute.

With ``--trace 0`` the run prints the end-to-end metrics, medians over
the clips of all clients.  With ``--trace 1`` client 0 times one untraced
clip, then traces clips through wrappers around the program's public
functions and the run prints the per-layer metrics; the spans and the
kernel shape census go to ``.bench_out/``.  ``--workload all`` runs every
workload untraced, each in its own process, and adds ungated
cross-workload ratios.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before cachediff is imported

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 6  # set-up probe processes per untraced run, at least
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run; reported as one line, with exit code 2."""


def import_program():
    """Import cachediff from this checkout's ``src/`` and the benchmark's modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cachediff
    except ImportError as exc:
        raise BenchError(f"cannot import cachediff from {src}: {exc}") from exc
    if not Path(cachediff.__file__).resolve().is_relative_to(src):
        raise BenchError(f"cachediff was imported from {cachediff.__file__}, not from {src}")
    import workload

    return workload


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy

    from cachediff import kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# clients


def clip_loop(wl, name: str, seed: int, seconds: float, refs, base_final, round_fn) -> list:
    """Run and check rounds of clips until the next round would end nearer after ``seconds``.

    ``round_fn()`` denoises one round, a list of (clip, run result) pairs.
    At least one round runs.  Run results are dropped once checked, so
    memory does not grow with the number of clips.
    """
    out = []
    durations = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        out += [wl.check_clip(clip, res, name, seed, refs, base_final) for clip, res in round_fn()]
        durations.append(time.perf_counter() - r0)
        if time.perf_counter() - t0 + statistics.median(durations) / 2 >= seconds:
            return out


def load_refs(wl, seed: int, ref_dir):
    try:
        refs = wl.load_references(ref_dir)
        return refs, wl.baseline_final(refs, wl.noise_seed(seed), ref_dir)
    except (RuntimeError, KeyError, ValueError) as exc:
        raise BenchError(f"references unusable: {exc!r}") from exc


def run_client(args, wl, base=None, ref_dir=None, barrier=None) -> dict:
    """One client: set up, wait at ``barrier``, then run and check clips for ``args.seconds``.

    ``base`` and ``ref_dir`` replace the default model and references.  A
    traced client alternates untraced and traced clips.
    Returns a JSON-able document with every clip and, if traced, the
    per-layer metrics.
    """
    rc = wl.make_config(args.workload, args.seed, base)
    model = wl.set_up(rc)
    refs, base_final = load_refs(wl, args.seed, ref_dir or wl.REFERENCE_DIR)
    if barrier is not None:
        barrier()
    doc = {"log": [], "layers": None, "tree_problems": []}
    if args.trace:
        clips = trace_clips(args, wl, rc, model, refs, base_final, doc)
    else:
        clips = clip_loop(wl, args.workload, args.seed, args.seconds, refs, base_final,
                          lambda: [wl.run_clip(rc, model)])
    doc["clips"] = [dataclasses.asdict(c) for c in clips]
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return doc


def trace_clips(args, wl, rc, model, refs, base_final, doc: dict) -> list:
    """Rounds of one untraced and one traced clip; fills ``doc`` with the per-layer metrics.

    Alternating the two keeps drift of the host's speed out of the
    tracing overhead, which is their difference.
    """
    import tracer

    from cachediff import runner

    tr = tracer.Tracer()
    clip_ids = itertools.count()
    run_clip = tr.wrap("bench.clip", wl.run_clip)
    ledgers = []
    with tr:
        runner.build_model(rc)
        runner.build_conditioning(rc)

    def traced_clip():
        tr.clip = next(clip_ids)
        with tr:
            try:
                clip, res = run_clip(rc, model)
            finally:
                tr.clip = tracer.ROOT
        if res is not None:
            ledgers.append(res.ledger.rows)
        return clip, res

    clips = clip_loop(wl, args.workload, args.seed, args.seconds, refs, base_final,
                      lambda: [wl.run_clip(rc, model), traced_clip()])
    if not ledgers:
        raise BenchError("no traced clip completed")
    values = tracer.layer_metrics(tr.spans, tr.info, ledgers)
    untraced_s = statistics.median(c.wall_s for c in clips[0::2])
    traced_s = statistics.median(c.wall_s for c in clips[1::2])
    values["trace.untraced_clip_s"] = untraced_s
    values["trace.clip_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.spans"] = sum(1 for s in tr.spans if s.clip != tracer.ROOT) / len(ledgers)
    doc["layers"] = values
    doc["tree_problems"] = tracer.tree_problems(tr.spans)[:10]
    log = doc["log"]
    log += write_trace(args, tr, len(ledgers))
    log.append("kernels.matmul.mbytes is computed from operand shapes (4 bytes per element of "
               "both inputs and the output), not measured")
    log.append(f"tracing overhead: {traced_s - untraced_s:+.4f} s per clip "
               f"({(traced_s / untraced_s - 1) * 100:+.1f} % of the untraced clip_s {untraced_s:.4f} s)")
    return clips


def write_trace(args, tr, n_clips: int) -> list[str]:
    """Write the spans and the kernel shape census; return the census summary lines."""
    import tracer

    shapes = tracer.census(tr.spans, tr.info, n_clips)
    lines = []
    for name, rows in shapes.items():
        top = ", ".join(f"{tuple(r['shape'])} x{r['calls_per_clip']:g}" for r in rows[:3])
        lines.append(f"census {name}: {len(rows)} distinct shapes per {args.workload} clip; "
                     f"most called {top}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"census-{stem}.json").write_text(json.dumps(shapes, indent=1) + "\n")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "provenance": provenance(),
        "clock": "time.perf_counter_ns",
        "fields": list(tracer.Span._fields) + ["info"],
        "spans": [list(s) + [tr.info.get(s.id)] for s in tr.spans],
    }
    path = OUT_DIR / f"spans-{stem}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    lines.append(f"spans: {len(tr.spans)} written to {path}")
    return lines


def client_main(args, wl) -> int:
    """Entry point of a client process: report ready, wait for go, print the document."""
    if args.client >= 0:
        os.sched_setaffinity(0, {args.client})

    def barrier():
        print("ready", flush=True)
        sys.stdin.readline()

    print(json.dumps(run_client(args, wl, barrier=barrier)), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent


def client_count(wl, args) -> int:
    """Clients that give the workload every core: cores // pool workers, at least one."""
    workers = wl.make_config(args.workload, args.seed).strategy.workers
    return max(1, len(os.sched_getaffinity(0)) // workers)


def spawn_clients(args, n: int) -> list[dict]:
    """Start ``n`` client processes, release them together once all are set up, collect them.

    With more than one client each is pinned to its own core; client 0 is
    the traced one in a traced run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    procs = []
    try:
        for i in range(n):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace if i == 0 else 0),
                   "--client", str(cpus[i] if n > 1 else -1)]
            procs.append(subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, text=True))
        for p in procs:
            line = p.stdout.readline()
            if line.strip() != "ready":
                raise BenchError(f"client failed to set up (exit {p.wait()})")
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        docs = []
        for p in procs:
            out, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
            if p.returncode != 0:
                raise BenchError(f"client exited {p.returncode}")
            docs.append(json.loads(out.splitlines()[-1]))
        return docs
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client did not finish: {exc}") from exc
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def probe_setups(args, n: int) -> list[float]:
    """Set-up times of fresh processes, from before each imports cachediff.

    Probes run ``n`` at a time, like the clients, so that every core is
    busy while set-up is timed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    while len(times) < SETUP_SAMPLES:
        procs = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                 for _ in range(n)]
        try:
            for p in procs:
                out, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
                if p.returncode != 0:
                    raise BenchError(f"set-up probe exited {p.returncode}")
                times.append(json.loads(out.splitlines()[-1])["setup_s"])
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe did not finish: {exc}") from exc
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                p.wait()
    return times


def gather(wl, docs: list[dict]) -> tuple[list, list, int]:
    """All clips of all clients, the completed ones, and the failure count; prints failures."""
    clips = [wl.Clip(**{**c, "problems": tuple(c["problems"])}) for d in docs for c in d["clips"]]
    failed = 0
    for i, clip in enumerate(clips):
        if not clip.ok:
            failed += 1
            for p in clip.problems:
                print(f"clip {i} FAILED: {p}")
    done = [c for c in clips if c.final_checksum is not None]
    if not done:
        raise BenchError("no clip completed")
    return clips, done, failed


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def summarize_untraced(args, wl, docs: list[dict], setup: list[float]) -> str:
    """Print every end-to-end metric with its unit; return the result line."""
    import manifest

    clips, done, failed = gather(wl, docs)
    walls = [c.wall_s for c in done]
    values = {
        "clip_s": statistics.median(walls),
        "modeled_clip_s": statistics.median(c.modeled_s for c in done),
        "flops_per_clip": statistics.median_low(c.flops for c in done),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(d["peak_rss_mb"] for d in docs),
        "rel_l2_vs_baseline": statistics.median(c.rel_l2_vs_baseline for c in done),
        "error_rate": failed / len(clips),
    }
    print(f"{args.workload}: {len(docs)} clients, {len(clips)} clips, clip walls "
          f"{min(walls):.4f}..{max(walls):.4f} s, {len(setup)} set-ups; medians reported")
    informational = dict(manifest.INFORMATIONAL)
    for name, unit in [(n, u) for n, u, _, _ in manifest.END_TO_END] + manifest.INFORMATIONAL:
        gate = "" if name in informational else "  (gated)"
        print(f"  {name:<20} {values[name]!r} {unit}{gate}")
    metrics = {n: (values[n], u) for n, u, _, _ in manifest.END_TO_END}
    return result_line(failed == 0, len(clips), failed, metrics)


def summarize_traced(args, wl, docs: list[dict]) -> str:
    """Print the traced client's log; return the result line of per-layer metrics."""
    import manifest

    clips, _, failed = gather(wl, docs)
    traced = docs[0]
    for line in traced["log"] + [f"span tree: {p}" for p in traced["tree_problems"]]:
        print(line)
    metrics = {n: (traced["layers"][n], u) for n, u, _, _ in manifest.PER_LAYER}
    return result_line(failed == 0 and not traced["tree_problems"], len(clips), failed, metrics)


def run_workload(args, wl) -> str:
    n = client_count(wl, args)
    if args.trace:
        return summarize_traced(args, wl, spawn_clients(args, n))
    setup = probe_setups(args, n)
    return summarize_untraced(args, wl, spawn_clients(args, n), setup)


def run_all(args, wl) -> str:
    """Every workload untraced, each in its own process, plus ungated cross-workload ratios."""
    results = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=4 * CHILD_TIMEOUT_S + 2 * args.seconds)
        except subprocess.SubprocessError as exc:
            raise BenchError(f"workload {name} did not finish: {exc}") from exc
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {out.returncode}: {out.stderr.strip()}")
        results[name] = json.loads(lines[-1])
    base = results["baseline"]["metrics"]
    for name, res in results.items():
        if name == "baseline":
            continue
        m = res["metrics"]
        speedup = base["modeled_clip_s"]["value"] / m["modeled_clip_s"]["value"]
        ratio = base["flops_per_clip"]["value"] / m["flops_per_clip"]["value"]
        print(f"informational, not gated: {name} over baseline: modeled speedup {speedup:.2f}x, "
              f"FLOPs ratio {ratio:.3f}")
    metrics = {f"{name}.{k}": (v["value"], v["unit"])
               for name, res in results.items() for k, v in res["metrics"].items()}
    return result_line(
        all(r["correct"] for r in results.values()),
        sum(r["attempted"] for r in results.values()),
        sum(r["failed"] for r in results.values()),
        metrics,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="input seed; noise seed is seed %% 16")
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run printing per-layer metrics")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time (used by the benchmark itself)")
    ap.add_argument("--client", type=int, metavar="CPU",
                    help="run as one client process pinned to CPU, -1 unpinned "
                    "(used by the benchmark itself)")
    ap.add_argument("--make-references", action="store_true",
                    help="rebuild the committed reference outputs at workers=1")
    args = ap.parse_args(argv)
    try:
        wl = import_program()
        if args.make_references:
            wl.make_references()
            return 0
        names = list(wl.WORKLOADS) + ["all"]
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}, got {args.workload!r}")
        if args.setup_probe:
            wl.set_up(wl.make_config(args.workload, args.seed))
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        if args.client is not None:
            return client_main(args, wl)
        print("provenance: " + json.dumps(provenance()))
        line = run_all(args, wl) if args.workload == "all" else run_workload(args, wl)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
