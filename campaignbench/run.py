#!/usr/bin/env python3
"""Builds the campaign benchmark from this checkout and runs it once.

Usage (from the root of a checkout):

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                 [--size full|tiny] [--digests FILE]

The genfault library is compiled from the checkout's own sources together
with the benchmark driver, in Release mode, under .bench_build/. Build
output goes to stderr; the driver's report goes to stdout and its last line
is the one-line JSON result. The exit code is the driver's (0 = correct).
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "campaignbench"
OUT = ROOT / ".bench_build" / "campaignbench-run"
BINARY = BUILD / "campaignbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"campaignbench: no genfault sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources (git is not asked to look above the checkout)."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True)
            return head.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"campaignbench: build failed: {e}")
    args = list(argv)
    if "--digests" not in args:
        args += ["--digests", str(HERE / "digests.tsv")]
    args += ["--out", str(OUT), "--commit", source_id()]
    return subprocess.run([str(BINARY), *args]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
