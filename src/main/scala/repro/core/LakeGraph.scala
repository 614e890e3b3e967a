package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.lake.DataLake

/** The DomainNet bipartite graph, held on the driver.
  *
  * Node ids are contiguous: value nodes occupy `[0, numValues)` and
  * attribute nodes `[numValues, numValues + numAttrs)`, so centrality
  * kernels can use dense arrays indexed by node id. Within each part, ids
  * follow Spark's string order (unsigned UTF-8 bytes, see [[LakeGraph.Utf8Order]]).
  *
  * @param valueNames value strings by value id
  * @param attrNames  attribute names by `attrId - numValues`
  * @param csr        the symmetric adjacency over both parts
  */
final class LakeGraph private[core] (
    spark: SparkSession,
    val valueNames: Array[String],
    val attrNames: Array[String],
    val csr: Csr) {

  def numValues: Int = valueNames.length

  def numAttrs: Int = attrNames.length

  def numNodes: Int = numValues + numAttrs

  def numEdges: Int = csr.numEdges

  /** DataFrame `(value: String, valueId: Long)`, one row per value node.
    * A local relation over [[valueNames]]: reading it runs no Spark job.
    */
  lazy val values: DataFrame = {
    import spark.implicits._
    valueNames.iterator.zipWithIndex.map { case (v, i) => (v, i.toLong) }.toSeq.toDF("value", "valueId")
  }

  /** DataFrame `(attribute: String, attrId: Long)`, one row per attribute node. */
  lazy val attrs: DataFrame = {
    import spark.implicits._
    attrNames.iterator.zipWithIndex.map { case (a, i) => (a, (numValues + i).toLong) }.toSeq.toDF("attribute", "attrId")
  }

  /** Values appearing in at least two attributes — the homograph candidates. */
  def candidateValues: Seq[String] =
    (0 until numValues).filter(csr.degree(_) >= 2).map(valueNames(_))
}

object LakeGraph {

  /** Normalize a raw cell value the way the paper does: treat it as a
    * single string, trim surrounding whitespace, upper-case it. Empty and
    * null values normalize to null (dropped from the graph).
    *
    * "Whitespace" is Spark's `trim`: only U+0020 spaces are stripped, so a
    * value padded with a tab, a newline or a no-break space (U+00A0) stays
    * distinct from the bare value. DuckDB's `trim`, which the oracle tests
    * use, also strips U+00A0 and the other Unicode space separators, so
    * oracle tests keep such padding out of their inputs.
    */
  val normalizeCol: org.apache.spark.sql.Column => org.apache.spark.sql.Column =
    c => {
      val t = upper(trim(c))
      when(t.isNull || t === "", lit(null)).otherwise(t)
    }

  /** Normalized, non-null cells of a lake: `(attribute, value)`. */
  def normalizedCells(lake: DataLake): DataFrame =
    lake.cells
      .select(col("attribute"), normalizeCol(col("value")).as("value"))
      .filter(col("value").isNotNull)

  /** Spark's string order: unsigned UTF-8 bytes, which is code point order.
    * `String.compareTo` compares UTF-16 units instead and puts a
    * supplementary character (a surrogate pair) before U+E000..U+FFFF.
    */
  object Utf8Order extends Ordering[String] {
    def compare(a: String, b: String): Int = {
      var i = 0
      var j = 0
      while (i < a.length && j < b.length) {
        val ca = a.codePointAt(i)
        val cb = b.codePointAt(j)
        if (ca != cb) return Integer.compare(ca, cb)
        i += Character.charCount(ca)
        j += Character.charCount(cb)
      }
      Integer.compare(a.length - i, b.length - j)
    }
  }

  /** Node ids and CSR offsets are `Int`s: every node id must fit, and so
    * must the adjacency array, which holds each edge twice.
    */
  def requireIntIds(numValues: Long, numAttrs: Long, numEdges: Long): Unit = {
    require(numValues + numAttrs <= Int.MaxValue,
      s"$numValues values + $numAttrs attributes exceed the Int node-id space")
    require(2 * numEdges <= Int.MaxValue,
      s"$numEdges edges exceed the Int adjacency space (2 entries per edge)")
  }

  /** Build the bipartite graph.
    *
    * Preprocessing per the paper (§5): values that occur exactly once in
    * the whole lake are dropped — they cannot be homographs and only slow
    * down centrality computation. Values occurring multiple times (even in
    * a single attribute) are kept.
    *
    * One Spark aggregation groups the normalized cells by value, counting
    * cells and collecting the value's attribute set; the kept rows are
    * collected, and ids and the [[Csr]] are built on the driver. The driver
    * therefore holds O(values + edges) strings; `spark.driver.maxResultSize`
    * bounds the collect.
    *
    * @param minOccurrences minimum number of *cells* a value must occupy to
    *                       be kept (paper uses 2)
    */
  def build(lake: DataLake, minOccurrences: Int = 2): LakeGraph = {
    val spark = lake.cells.sparkSession
    import spark.implicits._
    val rows = normalizedCells(lake)
      .groupBy("value")
      .agg(count(lit(1)).as("occ"), collect_set("attribute").as("attrs"))
      .filter(col("occ") >= minOccurrences)
      .select("value", "attrs")
      .as[(String, Array[String])]
      .collect()
      .sortBy(_._1)(Utf8Order)

    val valueNames = rows.map(_._1)
    val attrNames = rows.iterator.flatMap(_._2).toArray.distinct.sorted(Utf8Order)
    val nv = valueNames.length
    requireIntIds(nv.toLong, attrNames.length.toLong, rows.iterator.map(_._2.length.toLong).sum)

    val attrId = attrNames.iterator.zipWithIndex.map { case (a, i) => a -> (nv + i) }.toMap
    val edges = rows.iterator.zipWithIndex.flatMap { case ((_, as), v) => as.iterator.map(a => (v, attrId(a))) }
    new LakeGraph(spark, valueNames, attrNames, Csr.fromEdges(nv + attrNames.length, nv, edges))
  }
}
