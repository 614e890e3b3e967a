package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Number of Spark stages submitted by jobs that `body` starts. Stages
    * are matched through a local property set on this thread, so jobs of
    * other threads do not count.
    */
  def stagesSubmitted(body: => Any): Int = {
    val sc = spark.sparkContext
    val tag = java.util.UUID.randomUUID().toString
    val count = new AtomicInteger
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (e.properties != null && e.properties.getProperty(SparkSpec.StageTag) == tag) count.incrementAndGet()
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(SparkSpec.StageTag, tag)
    try body
    finally {
      sc.setLocalProperty(SparkSpec.StageTag, null)
      ListenerBusAccess.drain(sc)
      sc.removeSparkListener(listener)
    }
    count.get
  }
}

object SparkSpec {
  private val StageTag = "repro.test.stageTag"

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
