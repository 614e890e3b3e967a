package perfbench

import scala.collection.mutable

/** Collects the metrics of a run, prints them by name with their unit, and
  * renders the one-line JSON result. A metric's value is the median of its
  * samples. Every metric is printed; the JSON holds the ones it is asked for.
  */
final class Report {
  private final case class Metric(name: String, samples: Seq[Double], unit: String, layer: Boolean) {
    def value: Double = Report.median(samples)
  }

  private val metrics = mutable.ArrayBuffer.empty[Metric]
  private val lines = mutable.ArrayBuffer.empty[String]

  def time(name: String, samples: Seq[Double]): Unit =
    metrics += Metric(name, samples, "s", layer = false)

  def value(name: String, v: Double, unit: String): Unit =
    metrics += Metric(name, Seq(v), unit, layer = false)

  def layer(name: String, samples: Seq[Double], unit: String): Unit =
    metrics += Metric(name, samples, unit, layer = true)

  def info(key: String, v: String): Unit = lines += s"$key = $v"

  def note(line: String): Unit = lines += line

  def printAll(): Unit = {
    lines.foreach(println)
    metrics.foreach { m =>
      val kind = if (m.layer) "layer" else "end-to-end"
      println(f"$kind ${m.name} = ${m.value}%.6g ${m.unit} [${Report.summary(m.samples)}]")
    }
  }

  /** The result line, with the named metrics in the given order. */
  def json(correct: Boolean, attempted: Int, failed: Int, names: Seq[String]): String = {
    val ms = names.map { name =>
      val m = metrics.find(_.name == name).getOrElse(sys.error(s"metric $name was not measured"))
      s""""${m.name}": {"value": ${Report.number(m.value)}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Report {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Median, sample count and the highest percentile that still has at
    * least ten samples beyond it.
    */
  def summary(xs: Seq[Double]): String = {
    val n = xs.length
    val top =
      if (n < 20) "no percentile above the median has 10 samples beyond it"
      else {
        val pct = math.floor(100.0 * (n - 10) / n).toInt
        val s = xs.sorted
        f"p$pct=${s(math.ceil(pct / 100.0 * n).toInt - 1)}%.6g"
      }
    s"median of n=$n; $top"
  }

  /** Full-precision JSON number; JSON has no NaN, so that becomes null. */
  def number(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString
}
