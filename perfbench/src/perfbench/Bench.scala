package perfbench

import java.io.File
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.PerfbenchAccess
import org.apache.spark.sql.SparkSession
import repro.core.{BipartiteGraph, Csr, DomainNet, LakeGraph}
import repro.d4.D4
import repro.eval.Metrics

/** Time-to-ranking benchmark: one Spark driver, one caller, back-to-back
  * pipeline iterations on a generated lake, each layer timed from outside
  * through the program's public entry points.
  *
  * {{{
  *   perfbench.Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --json-metrics <name,...>
  * }}}
  *
  * A run sets up [[SetupRepeats]] times, runs one cold iteration and
  * [[WarmUp]] warm-up iterations, then a fixed sample of [[WarmSample]]
  * warm iterations, then more warm iterations until `--seconds` have
  * passed since the warm-up began, then the output checks. The sample is
  * the same whatever `--seconds` is and however fast the program runs;
  * with `--trace 1` its first iteration is traced. Timings come from the
  * sample only, the heap probe from the last warm-up iteration; the
  * iterations after the sample feed the check that top-k never changes. Every
  * metric is printed; the last line of standard output is the JSON result
  * with the metrics `--json-metrics` names.
  */
object Bench {

  /** Set-ups per run; the first, which also pays for JVM and Spark
    * start-up, is left out of `setup_s`.
    */
  val SetupRepeats = 3
  /** Warm iterations run before the sample and not timed. */
  val WarmUp = 1
  /** Warm iterations timed per run; end-to-end timings are their median. */
  val WarmSample = 2
  /** Spark threads: one per processor, never more. */
  val Threads: Int = Runtime.getRuntime.availableProcessors
  /** One shuffle partition per thread; the lake is handed off in as many. */
  val ShufflePartitions: Int = Threads
  val CodegenCacheEntries = 1000

  /** @param jsonMetrics the metrics the result line carries, in order */
  final case class Opts(workload: Workload, seed: Long, seconds: Double, trace: Boolean, jsonMetrics: Seq[String])

  /** What one pipeline iteration produced. Only the first one's is kept,
    * for the output checks.
    */
  final case class Outputs(graph: LakeGraph, csr: Csr, d4: Option[D4.Result])

  /** How long one iteration's layers took, and the top-k lists it returned. */
  final case class Iter(
      wallS: Double,
      cpuS: Double,
      gcS: Double,
      tracer: Tracer,
      counters: Map[Int, Counters],
      tops: Map[String, Seq[String]],
      d4Domains: Option[Int]) {

    def sum(names: String*): Double = names.map(tracer.seconds).sum

    def rankingS(r: String): Double = sum("graph", "csr", s"$r.score", s"$r.topk")

    /** Counters of every span with this name. */
    def at(name: String): Counters = {
      val c = new Counters
      tracer.spans.filter(_.name == name).foreach(s => counters.get(s.id).foreach(c += _))
      c
    }

    /** Seconds of each top-level span, for the per-iteration lines. */
    def layers: String =
      tracer.spans.filter(_.parent < 0).map(s => f"${s.name} ${s.seconds}%.2f").mkString(", ")

    /** Wall time less the kernel calls only traced iterations make. */
    def comparableWallS: Double = wallS - tracer.spans.filter(_.name.endsWith(".kernel")).map(_.seconds).sum
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList) match {
      case Right(o) => o
      case Left(msg) =>
        Console.err.println(s"perfbench: $msg")
        Console.err.println("usage: perfbench.Bench --workload <" +
          Workload.all.map(_.name).mkString("|") + "> --seed <n> --seconds <s> --trace <0|1>" +
          " --json-metrics <name,...>")
        sys.exit(2)
    }
    val code =
      try run(opts)
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  private def parse(args: List[String]): Either[String, Opts] = {
    val kv = args.grouped(2).collect { case List(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.length % 2 != 0 || kv.size * 2 != args.length) return Left(s"bad arguments: ${args.mkString(" ")}")
    for {
      name <- kv.get("workload").toRight("--workload is required")
      w <- Workload.byName(name).toRight(s"unknown workload $name")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight("--seed <integer> is required")
      secs <- kv.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).toRight("--seconds <positive> is required")
      trace <- kv.get("trace").orElse(Some("0")).collect { case "0" => false; case "1" => true }
        .toRight("--trace must be 0 or 1")
      metrics <- kv.get("json-metrics").map(_.split(",").toSeq.filter(_.nonEmpty))
        .toRight("--json-metrics <name,...> is required")
    } yield Opts(w, seed, secs, trace, metrics)
  }

  private def startSession(): SparkSession = {
    val scratch = new File(sys.props.getOrElse("perfbench.scratch", ".bench_build/spark")).getAbsoluteFile
    val spark = SparkSession.builder
      .master(s"local[$Threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      // room for every generated class of an iteration: at Spark's default
      // of 100, SB's ~150 generated classes evict each other, so every
      // iteration recompiles them and the JIT never settles
      .config("spark.sql.codegen.cache.maxEntries", CodegenCacheEntries.toString)
      .config("spark.local.dir", new File(scratch, "local").getPath)
      .config("spark.sql.warehouse.dir", new File(scratch, "warehouse").getPath)
      // no UI reads the status store, so keep its history short
      .config("spark.ui.retainedJobs", "50")
      .config("spark.ui.retainedStages", "50")
      .config("spark.ui.retainedTasks", "1000")
      .config("spark.sql.ui.retainedExecutions", "20")
      .getOrCreate()
    val parallelism = spark.sparkContext.defaultParallelism
    require(parallelism <= Threads, s"refusing to run $parallelism Spark threads on $Threads processors")
    spark
  }

  private def stopSession(spark: SparkSession): Unit = {
    spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  private def iterate(spark: SparkSession, w: Workload, in: Input, traced: Boolean): (Iter, Outputs) = {
    val sc = spark.sparkContext
    val tr = new Tracer(sc, traced)
    val listener = if (traced) Some(new LayerListener) else None
    listener.foreach(sc.addSparkListener)
    try {
      val gc0 = Jvm.gcSeconds
      val cpu0 = Jvm.cpuSeconds
      val t0 = System.nanoTime()
      val graph = tr.span("graph")(LakeGraph.build(in.lake))
      val csr = tr.span("csr")(BipartiteGraph.toCsr(graph))
      val tops = w.rankings(csr).map { r =>
        if (traced) tr.span(s"${r.name}.kernel")(r.kernel(spark, csr))
        val res = tr.span(s"${r.name}.score")(DomainNet.score(spark, graph, csr, r.measure))
        r.name -> tr.span(s"${r.name}.topk")(res.topK(r.k))
      }.toMap
      val d4 = w.d4.map(cfg => tr.span("d4")(D4.run(spark, in.lake, cfg)))
      val wall = (System.nanoTime() - t0) / 1e9
      val gc = Jvm.gcSeconds - gc0
      val cpu = Jvm.cpuSeconds - cpu0
      listener.foreach(_ => PerfbenchAccess.drainListeners(sc))
      (Iter(wall, cpu, gc, tr, listener.map(_.counters).getOrElse(Map.empty), tops, d4.map(_.numDomains)),
        Outputs(graph, csr, d4))
    } finally listener.foreach(sc.removeSparkListener)
  }

  private def run(opts: Opts): Int = {
    val w = opts.workload
    val report = new Report
    val failures = mutable.ArrayBuffer.empty[String]

    // --- set-up: session start, lake generation, hand-off; several times ---
    val setupS = mutable.ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var input: Input = null
    for (i <- 0 until SetupRepeats) {
      if (spark != null) stopSession(spark)
      val t0 = System.nanoTime()
      spark = startSession()
      spark.sparkContext.setLogLevel("WARN")
      input = w.generate(spark, opts.seed)
      // hand-off: the lake is resident, one partition per thread, so
      // iterations time the pipeline, not the generator that produced its
      // cells or the tables they were unioned from
      val resident = input.lake.cells.coalesce(ShufflePartitions).cache()
      resident.count()
      input = input.copy(lake = input.lake.copy(cells = resident))
      setupS += (System.nanoTime() - t0) / 1e9
    }
    val cells = input.lake.cells.count()
    phase("set-up done")

    // --- the cold iteration, the fixed warm sample, then warm ones for --seconds ---
    var attempted = 0
    var failedIters = 0
    var reference: Option[Outputs] = None
    var heapMb = Double.NaN
    def attempt(traced: Boolean, probeHeap: Boolean = false): Option[Iter] = {
      attempted += 1
      try {
        val (it, out) = iterate(spark, w, input, traced)
        if (reference.isEmpty) reference = Some(out)
        if (probeHeap) { // outside the timed region, this iteration's outputs still referenced
          heapMb = Jvm.liveHeapMb()
          java.lang.ref.Reference.reachabilityFence(out)
        }
        Some(it)
      } catch {
        case NonFatal(e) =>
          failedIters += 1
          failures += s"iteration $attempted threw ${e.getClass.getSimpleName}: ${e.getMessage}"
          None
      }
    }
    val cold = attempt(traced = false)
    phase("cold iteration done")
    System.gc()
    val deadline = System.nanoTime() + (opts.seconds * 1e9).toLong
    val warmUp = (1 to WarmUp).flatMap(i => attempt(traced = false, probeHeap = i == WarmUp))
    // the sample; traced runs trace its first iteration, which has an
    // untraced iteration on either side, so that warm-up drift cancels out
    // of the tracing-overhead estimate
    val warm = (0 until WarmSample).flatMap(i => attempt(traced = opts.trace && i == 0))
    val extra = mutable.ArrayBuffer.empty[Iter]
    while (System.nanoTime() < deadline) extra ++= attempt(traced = false)
    val labelled = cold.map(_ -> " (cold)").toSeq ++ warmUp.map(_ -> " (warm-up)") ++
      warm.map(it => it -> (if (it.tracer.traced) " (traced)" else "")) ++ extra.map(_ -> " (not in the sample)")
    labelled.zipWithIndex.foreach { case ((it, kind), i) =>
      report.note(f"iteration $i$kind: ${it.wallS}%.3f s, cpu ${it.cpuS}%.3f s (${it.layers})")
    }
    report.note(f"set-ups: ${setupS.map(s => f"$s%.3f").mkString(", ")} s (the first is left out of setup_s)")
    val untraced = warm.filterNot(_.tracer.traced)
    val traced = warm.filter(_.tracer.traced)
    val all = labelled.map(_._1)

    phase("warm iterations done")
    // --- output checks, once, outside the timed region ---
    val refTops = all.headOption.map(_.tops).getOrElse(Map.empty)
    all.foreach { it =>
      if (it.tops != refTops) {
        failedIters += 1
        failures += "top-k differs between iterations"
      }
    }
    // independent checks run side by side; their wall time is not measured
    val checks: Seq[(String, () => Option[String])] = reference.toSeq.flatMap { ref =>
      val rankings = w.rankings(ref.csr).map(r => r.name -> r).toMap
      val names = Checks.valueNames(spark, ref.graph)
      // the pipeline's own top-k against a ranking of the reference scores
      def ranked(name: String, scores: Array[Double]): Option[String] =
        Checks.topKMatches(refTops(name), rankings(name).k, scores, rankings(name).ascending, names)
          .map(msg => s"$name top-k: $msg")
      val exact = Seq(
        "lcc-vs-brute-force" -> (() => Checks.lccMatchesBruteForce(spark, ref.csr, ranked("lcc", _))),
        "bc-path-length-identity" -> (() => Checks.bcPathLengthIdentity(spark, ref.csr, ranked("bc", _))))
      val quality = for (truth <- input.truth.toSeq; floor <- w.bcFloor.toSeq) yield
        "bc-precision-floor" -> { () =>
          val p = Metrics.atK(refTops("bc"), truth, refTops("bc").size).precision
          if (p > floor) None else Some(f"BC P@k $p%.3f is not above $floor")
        }
      exact ++ quality :+
        ("csr-vs-duckdb" -> (() => Checks.csrMatchesDuckDb(spark, input.lake, ref.graph, ref.csr)))
    }
    val pool = java.util.concurrent.Executors.newFixedThreadPool(math.max(1, checks.size))
    val pending = checks.map { case (name, body) =>
      name -> pool.submit[(Option[String], Double)] { () =>
        val t0 = System.nanoTime()
        val r = try body() catch { case NonFatal(e) => Some(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}") }
        (r, (System.nanoTime() - t0) / 1e9)
      }
    }
    val checkResults = pending.map { case (name, f) => name -> f.get() }
    pool.shutdown()
    checkResults.foreach { case (name, (r, secs)) =>
      r.foreach(msg => failures += s"$name: $msg")
      report.note(f"check $name: ${r.fold("ok")(_ => "FAILED")} ($secs%.1f s)")
    }
    if (reference.isEmpty) failures += "no iteration completed"
    val checksFailed = checkResults.exists(_._2._1.isDefined)
    val failed = if (checksFailed || reference.isEmpty) attempted else failedIters

    phase("checks done")
    // --- shape and config record (outside the timed region) ---
    reference.foreach { ref =>
      val csr = ref.csr
      val classes = Shape.classes(csr)
      val rankings = w.rankings(csr)
      report.info("config.master", spark.sparkContext.master)
      report.info("config.cores", Threads.toString)
      report.info("config.shuffle_partitions", spark.conf.get("spark.sql.shuffle.partitions"))
      report.info("config.driver_heap_mb", f"${Jvm.maxHeapMb}%.0f")
      report.info("config.workload_seed", opts.seed.toString)
      report.info("shape.cells", cells.toString)
      report.info("shape.values", csr.numValues.toString)
      report.info("shape.attributes", csr.numAttrs.toString)
      report.info("shape.edges", csr.numEdges.toString)
      report.info("shape.classes", classes.toString)
      report.info("shape.values_per_class", f"${csr.numValues.toDouble / math.max(1, classes)}%.3f")
      report.info("shape.bfs_sources", rankings.find(_.name == "bc").map(_.sources).getOrElse(0).toString)
      report.info("shape.csr_bytes", (4L * (csr.offsets.length + csr.neighbors.length)).toString)
    }

    // --- end-to-end metrics (untraced iterations) ---
    report.time("setup_s", setupS.toSeq.drop(1))
    report.time("cold_pipeline_s", cold.map(_.wallS).toSeq)
    report.time("pipeline_s", untraced.map(_.wallS))
    report.time("bc_ranking_s", untraced.map(_.rankingS("bc")))
    report.time("lcc_ranking_s", untraced.map(_.rankingS("lcc")))
    if (w.d4.isDefined) report.time("d4_s", untraced.map(_.sum("d4")))
    val pipelineMedian = Report.median(untraced.map(_.wallS))
    report.value("cells_per_s", cells / pipelineMedian, "1/s")
    report.value("driver_heap_mb", heapMb, "MB")
    for (truth <- input.truth; ref <- reference) {
      report.value("bc_p_at_k", Metrics.atK(refTops("bc"), truth, refTops("bc").size).precision, "ratio")
      report.value("lcc_p_at_k", Metrics.atK(refTops("lcc"), truth, refTops("lcc").size).precision, "ratio")
      ref.d4.foreach { d =>
        report.value("d4_f1", f1(d.homographs, truth), "ratio")
      }
    }
    report.value("failed_ops_frac", failed.toDouble / math.max(1, attempted), "ratio")

    // --- per-layer metrics (traced iterations) ---
    for (ref <- reference if opts.trace) Layers.report(report, traced, warmUp.takeRight(1) ++ untraced, w, ref.csr, cells, Threads)

    failures.foreach(f => report.note(s"FAILURE $f"))
    stopSession(spark)
    phase("session stopped")
    report.printAll()
    println(report.json(correct = failures.isEmpty, attempted = attempted, failed = failed, opts.jsonMetrics))
    0
  }

  private val jvmStart = System.nanoTime()

  /** Progress on stderr, so a slow run shows where its time went. */
  private def phase(name: String): Unit =
    Console.err.println(f"perfbench: $name at ${(System.nanoTime() - jvmStart) / 1e9}%.1f s")

  private def f1(flagged: Set[String], truth: Set[String]): Double = {
    val hits = flagged.count(truth.contains)
    val p = if (flagged.isEmpty) 0.0 else hits.toDouble / flagged.size
    val r = if (truth.isEmpty) 0.0 else hits.toDouble / truth.size
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }
}

object Shape {
  /** Distinct attribute sets among value nodes (structural-equivalence classes). */
  def classes(csr: Csr): Int =
    (0 until csr.numValues).iterator.map(v => csr.neighborsOf(v).toSeq).toSet.size
}
