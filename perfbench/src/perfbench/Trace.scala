package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark counters attributed to one span. Times are seconds, sizes bytes. */
final class Counters {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var taskS = 0.0
  var taskWaitS = 0.0
  var shuffleWriteBytes = 0L
  var shuffleReadRecords = 0L
  var resultBytes = 0L

  def +=(o: Counters): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks
    taskS += o.taskS; taskWaitS += o.taskWaitS
    shuffleWriteBytes += o.shuffleWriteBytes
    shuffleReadRecords += o.shuffleReadRecords
    resultBytes += o.resultBytes
  }
}

/** One timed call into a layer: name, parent span, wall-clock interval. */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans around the calls the benchmark makes into the program.
  *
  * Untraced, a span is only a pair of `nanoTime` reads. Traced, the span id
  * is also set as a Spark local property, so [[LayerListener]] can charge
  * every job, stage and task the call starts to the innermost open span.
  * Spans are kept in memory and read after the iteration.
  */
final class Tracer(sc: SparkContext, val traced: Boolean) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 0

  def span[T](name: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    val outer = if (traced) sc.getLocalProperty(Tracer.Key) else null
    if (traced) sc.setLocalProperty(Tracer.Key, id.toString)
    open = (id, name, System.nanoTime()) :: open
    try body
    finally {
      val end = System.nanoTime()
      val (_, _, start) = open.head
      open = open.tail
      if (traced) sc.setLocalProperty(Tracer.Key, outer)
      done += Span(id, name, parent, start, end)
    }
  }

  def spans: Seq[Span] = done.toSeq.sortBy(_.id)

  /** Total seconds of the spans with this name. */
  def seconds(name: String): Double = done.iterator.filter(_.name == name).map(_.seconds).sum
}

object Tracer {
  val Key = "perfbench.span"
}

/** Benchmark-owned listener: charges Spark work to the span that started it.
  *
  * A job carries the local properties of the thread that submitted it, so
  * its span id is known at job start; stages and tasks are mapped to the
  * span through their stage id. Task wait is launch time minus the stage's
  * submission time.
  */
final class LayerListener extends SparkListener {
  private val bySpan = mutable.HashMap.empty[Int, Counters]
  private val stageSpan = mutable.HashMap.empty[Int, Int]
  private val stageSubmitted = mutable.HashMap.empty[Int, Long]

  private def spanOf(props: java.util.Properties): Option[Int] =
    Option(props).flatMap(p => Option(p.getProperty(Tracer.Key))).map(_.toInt)

  private def at(span: Int): Counters = bySpan.getOrElseUpdate(span, new Counters)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    spanOf(e.properties).foreach { s =>
      at(s).jobs += 1
      e.stageIds.foreach(id => stageSpan(id) = s)
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val id = e.stageInfo.stageId
    spanOf(e.properties).foreach(s => stageSpan(id) = s)
    stageSubmitted(id) = e.stageInfo.submissionTime.getOrElse(System.currentTimeMillis())
    stageSpan.get(id).foreach(s => at(s).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageSpan.get(e.stageId).foreach { s =>
      val c = at(s)
      c.tasks += 1
      stageSubmitted.get(e.stageId).foreach { sub =>
        c.taskWaitS += math.max(0L, e.taskInfo.launchTime - sub) / 1e3
      }
      val m = e.taskMetrics
      if (m != null) {
        c.taskS += m.executorRunTime / 1e3
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.shuffleReadRecords += m.shuffleReadMetrics.recordsRead
        c.resultBytes += m.resultSize
      }
    }
  }

  /** Counters per span id; call after the listener bus has drained. */
  def counters: Map[Int, Counters] = synchronized(bySpan.toMap)
}

/** JVM-wide counters read from the management beans. */
object Jvm {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Cumulative GC time of this JVM, in seconds. */
  def gcSeconds: Double = gcs.map(b => math.max(0L, b.getCollectionTime)).sum / 1e3

  /** Heap in use right after a full collection, in MB: live data only.
    * Spark's ContextCleaner frees shuffle and broadcast state only after a
    * GC has found its owners unreachable, so collect, give the cleaner
    * (which polls every 100 ms) time to run, and collect again.
    */
  def liveHeapMb(): Double = {
    System.gc()
    Thread.sleep(300)
    System.gc()
    val mem = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage
    mem.getUsed / (1024.0 * 1024.0)
  }

  /** CPU time of every thread of this JVM so far, in seconds. */
  def cpuSeconds: Double =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
      .getProcessCpuTime / 1e9

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / (1024.0 * 1024.0)
}
