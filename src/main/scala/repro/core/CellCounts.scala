package repro.core

import org.apache.spark.sql.functions._
import repro.lake.DataLake

/** The lake's normalized cells, aggregated once: how often each value
  * occurs in each attribute. This is the pipeline's only cell-level Spark
  * job; the graph ([[LakeGraph.of]]), D4 (`repro.d4.D4.discover`) and the
  * dataset statistics are driver functions of it.
  *
  * Values and attributes get ids in Spark's string order
  * ([[LakeGraph.Utf8Order]]); values that occur only once are included.
  * Pair `i` is value `valueIds(i)` in attribute `attrIds(i)`, seen
  * `occurrences(i)` times. Pairs are sorted by (value id, attribute id), so
  * each value's pairs form one contiguous run.
  *
  * The driver holds O(distinct (value, attribute) pairs) strings and ids;
  * `spark.driver.maxResultSize` bounds the collect.
  */
final class CellCounts private (
    val valueNames: Array[String],
    val attrNames: Array[String],
    val valueIds: Array[Int],
    val attrIds: Array[Int],
    val occurrences: Array[Long]) {

  def numValues: Int = valueNames.length

  def numAttrs: Int = attrNames.length

  def numPairs: Int = valueIds.length

  /** Calls `f(v, from, until)` for every value `v`, in id order, with its
    * pairs `[from, until)`.
    */
  def foreachValue(f: (Int, Int, Int) => Unit): Unit = {
    var from = 0
    while (from < numPairs) {
      var until = from + 1
      while (until < numPairs && valueIds(until) == valueIds(from)) until += 1
      f(valueIds(from), from, until)
      from = until
    }
  }
}

object CellCounts {

  /** One `groupBy(value, attribute)` count over the normalized cells,
    * collected; ids and the pair order are made on the driver.
    */
  def of(lake: DataLake): CellCounts = {
    val spark = lake.cells.sparkSession
    import spark.implicits._
    val rows = LakeGraph.normalizedCells(lake)
      .groupBy("value", "attribute").agg(count(lit(1)).as("occ"))
      .as[(String, String, Long)]
      .collect()
    val valueNames = rows.iterator.map(_._1).toArray.distinct.sorted(LakeGraph.Utf8Order)
    val attrNames = rows.iterator.map(_._2).toArray.distinct.sorted(LakeGraph.Utf8Order)
    val valueId = valueNames.iterator.zipWithIndex.toMap
    val attrId = attrNames.iterator.zipWithIndex.toMap
    val v = rows.map(r => valueId(r._1))
    val a = rows.map(r => attrId(r._2))
    // LSD radix sort: stable by attribute, then stable by value.
    val order = countingOrder(v, valueNames.length, countingOrder(a, attrNames.length, Array.range(0, rows.length)))
    new CellCounts(valueNames, attrNames, order.map(v), order.map(a), order.map(rows(_)._3))
  }

  /** `rows` stably reordered by `key(row)`, a key in `[0, numKeys)`. */
  private def countingOrder(key: Array[Int], numKeys: Int, rows: Array[Int]): Array[Int] = {
    val start = new Array[Int](numKeys + 1)
    rows.foreach(r => start(key(r) + 1) += 1)
    var k = 0
    while (k < numKeys) { start(k + 1) += start(k); k += 1 }
    val out = new Array[Int](rows.length)
    rows.foreach { r => out(start(key(r))) = r; start(key(r)) += 1 }
    out
  }
}
