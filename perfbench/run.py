#!/usr/bin/env python3
"""Build and run the tml end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which pulls in the library sources) into
the directory named by CARGO_TARGET_DIR, default .bench_build, then runs the
tml_perfbench binary with TML_THREADS=2. The binary's standard output is
passed through; its last line is the JSON result. Build output goes to
standard error. Exits nonzero, without a result line, when the build or the
run fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        print(f"perfbench: failed: {' '.join(cmd)}", file=sys.stderr)
        return False
    return True


def build():
    out = build_dir()
    if not ((out / "build.ninja").exists() or (out / "Makefile").exists()):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        if not run_logged(["cmake", "-S", str(BENCH), "-B", str(out),
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                          BUILD_TIMEOUT_S):
            return None
    if not run_logged(["cmake", "--build", str(out), "--target",
                       "tml_perfbench", "-j", "4"], BUILD_TIMEOUT_S):
        return None
    binary = out / "tml_perfbench"
    return binary if binary.exists() else None


def _have(program):
    return any((pathlib.Path(d) / program).exists()
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def source_id():
    """The commit when run in a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    binary = build()
    if binary is None:
        return 2
    env = dict(os.environ)
    env["TML_THREADS"] = "2"
    env["TML_PERFBENCH_COMMIT"] = source_id()
    env.pop("TML_STATS", None)
    try:
        proc = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
