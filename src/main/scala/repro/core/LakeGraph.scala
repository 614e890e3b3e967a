package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.lake.DataLake

/** The DomainNet bipartite graph, held on the driver.
  *
  * Node ids are contiguous: value nodes occupy `[0, numValues)` and
  * attribute nodes `[numValues, numValues + numAttrs)`, so centrality
  * kernels can use dense arrays indexed by node id. Within each part, ids
  * follow Spark's string order (unsigned UTF-8 bytes, which is code point
  * order, not `String.compareTo`'s UTF-16 order).
  *
  * @param valueNames value strings by value id
  * @param attrNames  attribute names by `attrId - numValues`
  * @param csr        the symmetric adjacency over both parts
  */
final class LakeGraph private[core] (
    val valueNames: Array[String],
    val attrNames: Array[String],
    val csr: Csr) {

  def numValues: Int = valueNames.length

  def numAttrs: Int = attrNames.length

  def numNodes: Int = numValues + numAttrs

  def numEdges: Int = csr.numEdges

  /** DataFrame `(value: String, valueId: Long)`, one row per value node,
    * in the active SparkSession. A local relation over [[valueNames]]:
    * reading it runs no Spark job.
    */
  lazy val values: DataFrame = {
    val spark = SparkSession.active
    import spark.implicits._
    valueNames.iterator.zipWithIndex.map { case (v, i) => (v, i.toLong) }.toSeq.toDF("value", "valueId")
  }

  /** DataFrame `(attribute: String, attrId: Long)`, one row per attribute node. */
  lazy val attrs: DataFrame = {
    val spark = SparkSession.active
    import spark.implicits._
    attrNames.iterator.zipWithIndex.map { case (a, i) => (a, (numValues + i).toLong) }.toSeq.toDF("attribute", "attrId")
  }
}

object LakeGraph {

  /** Node ids and CSR offsets are `Int`s: every node id must fit, and so
    * must the adjacency array, which holds each edge twice.
    */
  def requireIntIds(numValues: Long, numAttrs: Long, numEdges: Long): Unit = {
    require(numValues + numAttrs <= Int.MaxValue,
      s"$numValues values + $numAttrs attributes exceed the Int node-id space")
    require(2 * numEdges <= Int.MaxValue,
      s"$numEdges edges exceed the Int adjacency space (2 entries per edge)")
  }

  /** Build the bipartite graph: [[of]] over the lake's [[CellCounts]].
    *
    * One map-only Spark stage counts each partition's (value, attribute)
    * pairs of the normalized cells, and the partial counts are summed on the
    * driver; pruning, ids and the [[Csr]] are made there too. The driver
    * therefore holds what [[CellCounts.of]] collects, as `repro.d4.D4` does:
    * each partition's names as UTF-8 bytes, and int pairs and counts, at
    * most min(cells, partitions × distinct pairs), singletons included.
    */
  def build(lake: DataLake, minOccurrences: Int = 2): LakeGraph = of(CellCounts.of(lake), minOccurrences)

  /** The bipartite graph over a lake's cell counts.
    *
    * Preprocessing per the paper (§5): values that occur exactly once in
    * the whole lake are dropped — they cannot be homographs and only slow
    * down centrality computation. Values occurring multiple times (even in
    * a single attribute) are kept.
    *
    * Kept values and the attributes they occur in keep their relative
    * order, so ids stay in Spark's string order. Runs on the driver.
    *
    * @param minOccurrences minimum number of *cells* a value must occupy to
    *                       be kept (paper uses 2)
    */
  def of(counts: CellCounts, minOccurrences: Int): LakeGraph = {
    val total = new Array[Long](counts.numValues)
    var i = 0
    while (i < counts.numPairs) { total(counts.valueIds(i)) += counts.occurrences(i); i += 1 }
    val valueId = compactIds(total.map(_ >= minOccurrences))
    val edges = Array.range(0, counts.numPairs).filter(i => valueId(counts.valueIds(i)) >= 0)
    val attrUsed = new Array[Boolean](counts.numAttrs)
    edges.foreach(i => attrUsed(counts.attrIds(i)) = true)
    val attrId = compactIds(attrUsed)
    val valueNames = counts.valueNames.indices.collect { case v if valueId(v) >= 0 => counts.valueNames(v) }.toArray
    val attrNames = counts.attrNames.indices.collect { case a if attrId(a) >= 0 => counts.attrNames(a) }.toArray
    val nv = valueNames.length
    requireIntIds(nv.toLong, attrNames.length.toLong, edges.length.toLong)
    new LakeGraph(valueNames, attrNames, Csr.fromEdges(nv + attrNames.length, nv,
      edges.iterator.map(i => (valueId(counts.valueIds(i)), nv + attrId(counts.attrIds(i))))))
  }

  /** New ids for the kept entries, in their old order; -1 for the others. */
  private def compactIds(kept: Array[Boolean]): Array[Int] = {
    var next = 0
    kept.map(k => if (k) { next += 1; next - 1 } else -1)
  }
}
