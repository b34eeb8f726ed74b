#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --gprof [--workload W] [--seed N]

The first form configures and builds perfbench/ (a CMake package that links
the repository's libraries) in Release under the build directory, runs one
workload, and prints a host fingerprint line followed by the benchmark's
result as the last line of standard output.

The second form is the gprof cross-check: a -pg build of the same sources in
its own build directory, one untraced run per workload, and self time per
namespace plus the top five functions.

The build directory is $CARGO_TARGET_DIR if set (relative paths are taken
from the repository root), else .bench_build at the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig4", "web1000_percore", "web1000_kernel")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build(build_dir, extra_flags=()):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources next to {HERE.name}/ (expected {ROOT}/src)")
    for tool in ("cmake", "make", "c++"):
        if shutil.which(tool) is None:
            fail(f"'{tool}' not found on PATH")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), "-G", "Unix Makefiles",
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *extra_flags])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs(), "--target", "alps_perfbench"])
    # Keep the compiler's temporary files inside the build directory.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail(f"build step failed: {' '.join(cmd)}")
    binary = build_dir / "alps_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def cache_value(build_dir, key):
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the binary is built from (git-independent)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "bench", HERE.name):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        if p.suffix in (".h", ".cpp", ".txt", ".py") or p.name == "CMakeLists.txt":
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(build_dir):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_sha256": source_digest(),
    }


def run_benchmark(args):
    build_dir = build_root() / "perfbench-release"
    binary = build(build_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    print("host " + json.dumps(fingerprint(build_dir), sort_keys=True))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# gprof cross-check

NAMESPACES = (
    ("alps::sim::", "sim"),
    ("alps::os::", "os"),
    ("alps::core::", "alps"),
    ("alps::traffic::", "traffic"),
    ("alps::web::", "web"),
    ("alps::metrics::", "metrics"),
    ("alps::telemetry::", "metrics"),
)
FLAT_ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")


def layer_of(function):
    # Classify by the outermost qualified name, ignoring template arguments
    # and return types, so std:: helpers instantiated for a layer's types
    # stay "other".
    name = re.sub(r"<.*", "", function)
    name = name.split("(")[0].split(" ")[-1]
    for prefix, layer in NAMESPACES:
        if name.startswith(prefix):
            return layer
    return "other"


def parse_flat_profile(text):
    rows = []
    started = False
    for line in text.splitlines():
        if line.strip().startswith("time   seconds"):
            started = True
            continue
        if not started:
            continue
        if not line.strip():
            break
        m = FLAT_ROW.match(line)
        if m:
            rows.append((float(m.group(3)), m.group(4).strip()))
    return rows


def run_gprof(args):
    if shutil.which("gprof") is None:
        fail("gprof not found on PATH")
    build_dir = build_root() / "perfbench-gprof"
    binary = build(build_dir, ("-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg"))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    report = {"host": fingerprint(build_dir), "workloads": {}}
    for w in workloads:
        run_dir = build_dir / f"gprof-{w}"
        run_dir.mkdir(exist_ok=True)
        (run_dir / "gmon.out").unlink(missing_ok=True)
        proc = subprocess.run([str(binary), "--workload", w, "--seed", str(args.seed),
                               "--seconds", "1", "--trace", "0"],
                              cwd=run_dir, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=RUN_TIMEOUT_S * 4)
        if proc.returncode != 0 or not (run_dir / "gmon.out").is_file():
            fail(f"gprof run of {w} failed")
        flat = subprocess.run(["gprof", "-b", "-p", str(binary), "gmon.out"], cwd=run_dir,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True).stdout
        rows = parse_flat_profile(flat)
        total = sum(s for s, _ in rows) or 1.0
        shares = {}
        for s, fn in rows:
            shares[layer_of(fn)] = shares.get(layer_of(fn), 0.0) + s / total
        top = sorted(rows, reverse=True)[:5]
        report["workloads"][w] = {
            "self_s": round(total, 2),
            **{f"prof.{k}_share": round(shares.get(k, 0.0), 4)
               for k in ("sim", "os", "alps", "traffic", "web", "metrics", "other")},
            "top5": [{"function": fn, "share": round(s / total, 4)} for s, fn in top],
        }
    print(json.dumps(report, indent=2))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--gprof", action="store_true", help="run the gprof cross-check")
    args = ap.parse_args()
    args.seed %= 2**64  # the program's seeds are 64-bit
    if args.gprof:
        run_gprof(args)
        return
    if args.workload is None or args.seconds is None or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    if not 1 <= args.seconds <= 3600:
        fail("--seconds must be in [1, 3600]")
    run_benchmark(args)


if __name__ == "__main__":
    main()
