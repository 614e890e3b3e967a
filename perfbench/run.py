"""Time-to-ranking benchmark of the DomainNet pipeline.

    python3 perfbench/run.py --workload <sb-detectors|rand-exact> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Builds the program and the benchmark
(see build.py), then runs one JVM with one local Spark driver. Human-readable
metric lines go first; the last line of standard output is the JSON result.
Exits non-zero, printing no result, if anything fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "4g"
RUN_TIMEOUT_S = 170
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    # the result line carries exactly the metrics BENCHMARK.json lists
    with open("BENCHMARK.json") as f:
        listed = json.load(f)["per_layer" if args.trace == "1" else "end_to_end"]
    classes = build.build(".")
    scratch = os.path.join(build.build_dir(), "perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    here = os.path.dirname(os.path.abspath(__file__))
    cp = os.pathsep.join([classes, os.path.join(build.spark_jars(), "*"), build.duckdb_jar()])
    cmd = ["java", f"-Xmx{HEAP}", *JVM_OPENS,
           f"-Djava.io.tmpdir={scratch}", f"-Dperfbench.scratch={scratch}",
           f"-Dlog4j2.configurationFile={os.path.join(here, 'log4j2.properties')}",
           "-cp", cp, build.MAIN_CLASS,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--json-metrics", ",".join(m["name"] for m in listed)]

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        sys.exit(proc.returncode or 1)
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
