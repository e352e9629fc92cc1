#!/usr/bin/env python3
"""Repository benchmark: builds sstbench/ and times one workload.

    python3 sstbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the sstbench program (CMake, into
$CARGO_TARGET_DIR or .bench_build/). All repetitions of a run share one
sstbench process, which answers them one at a time.

Seed N names INPUTS input seeds, N * INPUTS + i. A run first checks the
outputs at a stored seed, untimed; that repetition also warms the process,
so the timed ones reuse memory that is already resident. An untraced run
then repeats the workload over inputs 0, 1, 2, ... (cycling) for S seconds
and reports the end-to-end metrics of BENCHMARK.json: times as medians over
the repetitions, so one unusual input does not set a run's figure, and the
process's peak memory. A traced run alternates traced and untraced
repetitions of input 0 and reports the per-layer metrics. The last line of
standard output is the result object; the line before it is the host and
build manifest. See sstbench/README.md.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = 16

# Layer counts that depend only on the inputs: they must repeat exactly
# across repetitions of one input.
EXACT_COUNTS = (
    "sim.events", "sim.pending_peak", "core.data_tx", "core.repair_tx",
    "core.nacks_sent", "core.nacks_suppressed", "monitor.versions_received",
    "shard.epochs_executed", "shard.epochs_skipped", "runner.tasks",
    "sstp.events", "sstp.summary_tx", "sstp.sig_tx", "sstp.repair_tx",
    "sstp.forward_kB", "sstp.feedback_kB",
)
REP_TIMEOUT_S = 60


def fail(message, code=1):
    print(f"sstbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the program; returns the binary's path."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", "-DSST_CHECK=OFF",
                      "-DSST_SANITIZE="])
    steps.append(["cmake", "--build", str(build_dir), "--target", "sstbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(cmd))
    return build_dir / "sstbench"


def manifest(binary):
    """Host and build facts recorded with every result."""
    proc = subprocess.run([str(binary), "--manifest"], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        fail("sstbench --manifest failed: " + proc.stderr.strip())
    facts = json.loads(proc.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    facts.update({"cpu_model": cpu, "nproc": os.cpu_count(), "git_rev": rev})
    return facts


class Server:
    """One sstbench process, answering one repetition at a time.

    A repetition that fails or times out gives None; when the process dies
    or hangs it is stopped, and the next repetition starts a fresh one.
    """

    def __init__(self, binary, workload, size):
        self.cmd = [str(binary), "--workload", workload, "--size", size]
        self.proc = None
        self.buf = b""

    def rep(self, seed, traced, spans=None):
        if self.proc is None:
            self.proc = subprocess.Popen(self.cmd, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, bufsize=0)
            self.buf = b""
        request = f"{seed} {1 if traced else 0}"
        if spans is not None:
            request += f" {spans}"
        try:
            self.proc.stdin.write(request.encode() + b"\n")
            line = self._read_line(time.monotonic() + REP_TIMEOUT_S)
        except (BrokenPipeError, TimeoutError, EOFError) as e:
            print(f"sstbench: seed {seed}: {type(e).__name__}",
                  file=sys.stderr)
            self.stop()
            return None
        answer = json.loads(line)
        return None if "error" in answer else answer

    def _read_line(self, deadline):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def stop(self):
        """Ends the process and waits for it; fails on a refused build."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if proc.returncode == 3:
            fail("the sstbench build is an SST_CHECK or sanitizer build",
                 code=3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: a short size for the benchmark's own tests")
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="expected digests: size -> workload -> seed -> one "
                         "digest per input")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**59:
        fail("--seed must be an integer in [0, 2^59)", code=2)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", code=2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    expected = {int(seed): digests for seed, digests in json.loads(
        args.expected.read_text(encoding="utf-8"))[args.size][args.workload]
        .items()}

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    facts = manifest(binary)
    out_dir = build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"

    attempted = failed = 0

    def judge(ok):
        nonlocal attempted, failed
        attempted += 1
        failed += 0 if ok else 1

    # Output check at a stored seed, untimed; it also warms the process.
    # Runs alternate between the default and the held-out seed and walk
    # through their inputs, so all of them stay checked across runs.
    server = Server(binary, args.workload, args.size)
    try:
        stored = sorted(expected)
        golden_seed = stored[args.seed % len(stored)]
        i = 0 if args.trace else args.seed % INPUTS
        golden = server.rep(golden_seed * INPUTS + i, False)
        judge(golden is not None and golden["consistent"]
              and golden["digest"] == expected[golden_seed][i])

        # Repetitions run while the next one, taking as long as the longer
        # of the last two, still ends within the measured seconds.
        reps = []  # (input index, traced, result or None)
        took = []
        start = time.monotonic()
        while True:
            j = len(reps)
            traced = bool(args.trace) and j % 2 == 0
            i = 0 if args.trace else j % INPUTS
            spans = out_dir / f"{stem}-rep{j}.spans.jsonl" if traced else None
            t0 = time.monotonic()
            reps.append((i, traced, server.rep(args.seed * INPUTS + i, traced,
                                               spans)))
            took.append(time.monotonic() - t0)
            if (j >= 1 and time.monotonic() - start + max(took[-2:])
                    > args.seconds):
                break
    finally:
        server.stop()

    # Each repetition must give its input's stored digest or, for a seed
    # with none stored, the digest of that input's first good repetition;
    # traced repetitions must also repeat every exact count.
    want = dict(enumerate(expected.get(args.seed, [])))
    want_counts = None
    good = []
    for i, traced, r in reps:
        ok = r is not None and r["consistent"]
        if ok:
            ok = want.setdefault(i, r["digest"]) == r["digest"]
        if ok and traced:
            counts = tuple(r["layers"][k] for k in EXACT_COUNTS)
            want_counts = want_counts or counts
            ok = counts == want_counts
        judge(ok)
        if ok:
            good.append((traced, r))

    def median(values):
        return statistics.median(values) if values else 0.0

    plain = [r for t, r in good if not t]
    if args.trace:
        layered = [r for t, r in good if t]
        values = {m["name"]: median([r["layers"][m["name"]] for r in layered])
                  for m in wanted if m["name"] != "trace.overhead_frac"}
        base = median([r["wall_s"] for r in plain])
        values["trace.overhead_frac"] = (
            median([r["wall_s"] for r in layered]) / base - 1.0 if base else 0.0)
    else:
        values = {name: median([r[name] for r in plain])
                  for name in ("wall_s", "setup_s", "cpu_s")}
        # The process's peak over the run: the largest of the repetitions'.
        values["peak_rss_mb"] = max([r["peak_rss_mb"] for r in plain],
                                    default=0.0)
        values["ok_frac"] = 1.0 - failed / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {"manifest": facts, "workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace, "golden": golden,
              "reps": [{"input": i, "traced": t, "result": r}
                       for i, t, r in reps]}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    print("manifest " + json.dumps(facts))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
