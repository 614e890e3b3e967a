package repro.core

import scala.collection.mutable
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

  /** Counts the normalized cells in one map-only Spark stage: each
    * partition counts its own (value, attribute) pairs, and the partial
    * counts are collected. The driver gives ids, sorts the partials by
    * (value id, attribute id) and sums each run of equal pairs, so the
    * result does not depend on how the cells are partitioned.
    *
    * The driver holds, per partition, that partition's distinct pairs: at
    * most min(cells, partitions × distinct pairs) strings and counts. This
    * is the number of distinct pairs when no pair straddles partitions, as
    * in `repro.data.TusGen`'s lakes, which keep each column in one
    * partition. `spark.driver.maxResultSize` bounds the collect.
    *
    * Every cell with a non-empty value needs a non-null attribute id.
    */
  def of(lake: DataLake): CellCounts = {
    val partials = LakeGraph.normalizedCells(lake).rdd.mapPartitions { rows =>
      val counts = mutable.HashMap.empty[(String, String), Long]
      rows.foreach { r =>
        val pair = (r.getString(1), r.getString(0))
        counts.update(pair, counts.getOrElse(pair, 0L) + 1)
      }
      val values = new Array[String](counts.size)
      val attrs = new Array[String](counts.size)
      val occ = new Array[Long](counts.size)
      var i = 0
      counts.foreach { case ((v, a), n) => values(i) = v; attrs(i) = a; occ(i) = n; i += 1 }
      Iterator.single((values, attrs, occ))
    }.collect()
    val values = partials.flatMap(_._1)
    val attrs = partials.flatMap(_._2)
    val occ = partials.flatMap(_._3)
    require(!attrs.contains(null), "every lake cell with a non-empty value needs a non-null attribute id")
    val valueNames = values.distinct.sorted(LakeGraph.Utf8Order)
    val attrNames = attrs.distinct.sorted(LakeGraph.Utf8Order)
    val valueId = valueNames.iterator.zipWithIndex.toMap
    val attrId = attrNames.iterator.zipWithIndex.toMap
    val v = values.map(valueId)
    val a = attrs.map(attrId)
    // LSD radix sort: stable by attribute, then stable by value.
    val order = countingOrder(v, valueNames.length, countingOrder(a, attrNames.length, Array.range(0, values.length)))
    // A pair that straddles partitions has one partial per partition: sum each run.
    val runStart = Array.range(0, order.length).filter { k =>
      k == 0 || v(order(k)) != v(order(k - 1)) || a(order(k)) != a(order(k - 1))
    }
    val occurrences = Array.tabulate(runStart.length) { r =>
      val until = if (r + 1 < runStart.length) runStart(r + 1) else order.length
      var sum = 0L
      var k = runStart(r)
      while (k < until) { sum += occ(order(k)); k += 1 }
      sum
    }
    new CellCounts(valueNames, attrNames, runStart.map(k => v(order(k))), runStart.map(k => a(order(k))), occurrences)
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
