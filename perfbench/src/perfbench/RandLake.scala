package perfbench

import org.apache.spark.sql.SparkSession
import repro.lake.DataLake

/** The `rand-exact` lake: every value lands in a uniformly random subset of
  * the columns, so the lake has none of the domain structure of SB or TUS.
  *
  * A value's degree is uniform in `[1, maxDegree]` and its columns are
  * drawn without replacement. Values sharing an attribute set are rare
  * except at degree 1, so classes hold ~1.1 values each at 6,000 values
  * over 500 columns: the centrality kernels get no help from structural
  * equivalence. Every cell is emitted twice so no value is pruned as a
  * singleton. Deterministic in `seed`.
  */
object RandLake {

  final case class Params(values: Int, columns: Int, maxDegree: Int = 6, colsPerTable: Int = 5)

  /** Distinct (attribute, value) pairs, in generation order. */
  def pairs(p: Params, seed: Long): Array[(String, String)] = {
    val rnd = new scala.util.Random(seed)
    val attrs = Array.tabulate(p.columns)(c => f"r${c / p.colsPerTable}%03d.c$c%04d")
    val out = Array.newBuilder[(String, String)]
    val idx = Array.range(0, p.columns)
    var v = 0
    while (v < p.values) {
      val degree = 1 + rnd.nextInt(p.maxDegree)
      // partial Fisher-Yates: the first `degree` slots are the chosen columns
      var i = 0
      while (i < degree) {
        val j = i + rnd.nextInt(p.columns - i)
        val t = idx(i); idx(i) = idx(j); idx(j) = t
        out += (attrs(idx(i)) -> f"RV$v%06d")
        i += 1
      }
      v += 1
    }
    out.result()
  }

  def lake(spark: SparkSession, p: Params, seed: Long): DataLake = {
    import spark.implicits._
    val cells = pairs(p, seed).iterator.flatMap(c => Iterator(c, c)).toSeq
    DataLake.fromCells(cells.toDF("attribute", "value"), (p.columns + p.colsPerTable - 1) / p.colsPerTable)
  }
}
