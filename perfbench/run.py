#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper_figs|scale_1m|wire_1k \
        --seed N --seconds S --trace 0|1 [--size full|smoke]

It builds perfbench/bench.exe from source with dune, prints a `host`
line (nproc, CPU model, OCaml version, source revision), then runs the
workload in a fresh process with REPRO_JOBS / REPRO_SHARDS removed from
its environment. The last line of standard output is the result object.
Outside a checkout (no dune-project and lib/ beside perfbench/) it exits
with status 2 and prints no result.
"""

import hashlib
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def ocaml_version():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith("_"))
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run me from the root of a checkout of the repository")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "ocaml": ocaml_version(),
        "revision": revision(),
    }
    print("host " + json.dumps(host), flush=True)
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_JOBS", "REPRO_SHARDS")}
    try:
        run = subprocess.run([EXE] + args, env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
