#!/usr/bin/env python3
"""Run one Loom benchmark workload and print its result line.

    python3 loombench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (offline, batch mode) into loombench/target
and records the runtime classpath under .bench_build/loombench; later runs
reuse that build while the sources are unchanged. Each run then starts one
JVM on the benchmark's main class, sized from outside the program:

  * heap from /proc/meminfo as the repository's tier-1 command derives it
    (half of MemTotal, clamped to 2..8 GiB), with -Xms equal to -Xmx;
  * Spark local[n] with n = min(4, available cores) and n shuffle
    partitions, UI off, Spark bound to 127.0.0.1, scratch space in
    .bench_build/loombench/spark-local.

The JVM's last stdout line is the result; everything else goes to stderr.
The script exits non-zero, without a result, if the checkout lacks the
program's sources, the build fails, or the run fails or overruns.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cell-dblp-bfs", "stream-dblp-random-w10k")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
MAX_SPARK_CORES = 4
MAIN_CLASS = "repro.loombench.Main"

# Module opens Spark needs on Java 17 (as spark-submit passes them).
JAVA_OPENS = [
    "--add-opens=java.base/" + pkg + "=ALL-UNNAMED"
    for pkg in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print(f"loombench: {msg}", file=sys.stderr)
    sys.exit(1)


def heap_size():
    """Half of MemTotal in whole GiB, clamped to 2..8 (as tier-1 sizes Spark)."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(max(g, 2), 8)}g"
    except OSError:
        pass
    return "2g"


def spark_cores():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(MAX_SPARK_CORES, n))


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("Spark distribution not found: set SPARK_HOME")
    return home


def source_stamp(root):
    """Digest of every file the build reads from the checkout."""
    h = hashlib.sha256()
    trees = [root / "src" / "main", root / "jobs", root / "loombench" / "src" / "main"]
    files = [root / "loombench" / "build.sbt", root / "loombench" / "project" / "build.properties"]
    for tree in trees:
        files.extend(p for p in tree.rglob("*") if p.is_file())
    for p in sorted(files):
        h.update(str(p.relative_to(root)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def run_bounded(cmd, cwd, env, timeout, stdout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} overran {timeout} s and was stopped")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(root, state, env):
    """Compile with sbt if the sources changed; return the runtime classpath."""
    stamp = source_stamp(root)
    cp_file, stamp_file = state / "classpath.txt", state / "stamp.txt"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt not found on PATH")
    print("loombench: building with sbt (offline)", file=sys.stderr)
    sbt_env = dict(env, COURSIER_MODE="offline")
    opts = [o for o in sbt_env.get("SBT_OPTS", "").split() if o]
    opts += ["-Dsbt.offline=true", "-Dsbt.server.autostart=false"]
    sbt_env["SBT_OPTS"] = " ".join(opts)
    code, out = run_bounded(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=root / "loombench", env=sbt_env, timeout=BUILD_TIMEOUT_S, stdout=subprocess.PIPE)
    if code != 0:
        sys.stderr.write(out)
        fail(f"sbt build failed with exit code {code}")
    lines = [l for l in out.splitlines() if os.pathsep in l and "loombench" in l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out)
        fail("sbt printed no classpath")
    state.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1].strip())
    stamp_file.write_text(stamp)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    for need in (root / "src" / "main" / "scala", root / "jobs"):
        if not need.is_dir():
            fail(f"program sources not found ({need.relative_to(root)}); run from a full checkout")

    state = root / ".bench_build" / "loombench"
    env = dict(os.environ, SPARK_HOME=spark_home())
    classpath = build(root, state, env)

    cores = spark_cores()
    work = state / "run"
    local_dirs = state / "spark-local"
    tmp = state / "tmp"
    for d in (work, local_dirs, tmp):
        d.mkdir(parents=True, exist_ok=True)
    env.update(
        SPARK_MASTER=f"local[{cores}]",
        SPARK_SHUFFLE_PARTITIONS=str(cores),
        SPARK_LOCAL_DIRS=str(local_dirs),
        SPARK_LOCAL_IP="127.0.0.1",
    )
    java_home = env.get("JAVA_HOME")
    java = str(Path(java_home) / "bin" / "java") if java_home else shutil.which("java")
    if not java or not Path(java).exists():
        fail("java not found")
    heap = heap_size()
    cmd = [java, f"-Xms{heap}", f"-Xmx{heap}", *JAVA_OPENS,
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           f"-Djava.io.tmpdir={tmp}", "-cp", classpath, MAIN_CLASS,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(state / "records")]
    code, out = run_bounded(cmd, cwd=work, env=env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    shutil.rmtree(local_dirs, ignore_errors=True)
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"benchmark run failed (exit code {code})")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
