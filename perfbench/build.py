"""Build file of the benchmark package.

Compiles the program's sources (``src/main/scala``) together with the
benchmark's own (``perfbench/src``) with the Scala compiler that ships in
the Spark distribution, into ``<build dir>/perfbench/classes-<hash>``. The
hash covers every source file, so an unchanged tree is not rebuilt.

    python3 perfbench/build.py            # prints the classes directory
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAIN_CLASS = "perfbench.Bench"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def spark_jars():
    """The jars of the Spark distribution: $SPARK_HOME, else the first
    distribution on the PATH whose bin/ holds spark-submit and jars/."""
    homes = [os.environ.get("SPARK_HOME", "")]
    homes += [os.path.dirname(d) for d in os.environ.get("PATH", "").split(os.pathsep)
              if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in filter(None, homes):
        jars = os.path.join(home, "jars")
        if glob.glob(os.path.join(jars, "spark-core_*.jar")):
            return jars
    sys.exit("perfbench: no Spark distribution found; set SPARK_HOME")


def duckdb_jar():
    """The DuckDB JDBC driver the program's sbt build resolves, from the
    coursier cache (the DuckDB oracle check needs it at run time)."""
    cache = os.environ.get("COURSIER_CACHE", os.path.expanduser(os.path.join("~", ".cache", "coursier")))
    found = sorted(glob.glob(os.path.join(cache, "**", "duckdb_jdbc-1.0.0.jar"), recursive=True))
    if not found:
        sys.exit(f"perfbench: duckdb_jdbc-1.0.0.jar not found under {cache}")
    return found[0]


def sources(root):
    program = sorted(glob.glob(os.path.join(root, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not program:
        sys.exit(f"perfbench: no program sources under {os.path.join(root, 'src', 'main', 'scala')}")
    bench = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    return program + bench


def build(root="."):
    """Compile if needed; return the classes directory."""
    srcs = sources(os.path.abspath(root))
    digest = hashlib.sha256()
    for path in srcs:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    out = os.path.join(build_dir(), "perfbench")
    classes = os.path.join(out, "classes-" + digest.hexdigest()[:16])
    if os.path.isdir(classes):
        return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + srcs
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit(f"perfbench: compilation failed ({result.returncode})")
    os.rename(tmp, classes)
    return classes


if __name__ == "__main__":
    print(build())
