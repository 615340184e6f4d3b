#!/usr/bin/env python3
"""Engine benchmark entry point.

    python3 enginebench/run.py --workload card-sliding --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call compiles the benchmark and the
engine sources with sbt (see enginebench/build.sbt) and caches the runtime
classpath under enginebench/target; later calls reuse it while no engine or
benchmark source changed. The benchmark itself runs in one JVM with fixed
heap and GC settings, so that `heap_live_mb` compares across commits. Its
last line of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENGINE = ROOT / "src" / "main" / "scala" / "repro"
ENGINE_PACKAGES = ("core", "messaging", "assignment")
TARGET = HERE / "target"
CLASSPATH_FILE = TARGET / "bench-classpath.txt"
STAMP_FILE = TARGET / "bench-classpath.stamp"
WORK = ROOT / ".bench_build" / "enginebench"

# Fixed so that heap and GC figures compare across commits.
JVM_OPTS = [
    "-Xms2g", "-Xmx2g",
    "-XX:+UseG1GC", "-XX:ParallelGCThreads=2", "-XX:ConcGCThreads=1",
]
WORKLOADS = ("card-sliding", "many-windows", "fanout-failover")


def sources():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    files += sorted((HERE / "src").rglob("*.scala"))
    for pkg in ENGINE_PACKAGES:
        files += sorted((ENGINE / pkg).rglob("*.scala"))
    return files


def stamp(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compiles with sbt unless the cached classpath matches the sources."""
    files = sources()
    digest = stamp(files)
    if CLASSPATH_FILE.exists() and STAMP_FILE.exists() \
            and STAMP_FILE.read_text().strip() == digest:
        return CLASSPATH_FILE.read_text().strip()
    env = dict(os.environ)
    opts = env.get("SBT_OPTS", "-Dsbt.offline=true")
    # keep sbt's global state and server socket inside the checkout
    env["SBT_OPTS"] = " ".join([opts, "-Dsbt.server.autostart=false",
                                f"-Dsbt.global.base={TARGET / 'sbt-global'}"])
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true",
         "compile", "export Runtime / fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        sys.exit("enginebench: sbt build failed")
    cp = lines[-1]
    TARGET.mkdir(parents=True, exist_ok=True)
    CLASSPATH_FILE.write_text(cp + "\n")
    STAMP_FILE.write_text(digest + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not ENGINE.is_dir():
        sys.exit(f"enginebench: engine sources not found under {ENGINE}")
    cp = build()
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_OPTS, "-cp", cp, "enginebench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(WORK)]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
