package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.unsafe.Platform
import org.apache.spark.unsafe.types.UTF8String
import repro.lake.DataLake

/** The lake's normalized cells, aggregated once: how often each value
  * occurs in each attribute. This is the pipeline's only cell-level Spark
  * job; the graph ([[LakeGraph.of]]), D4 (`repro.d4.D4.discover`) and the
  * dataset statistics are driver functions of it.
  *
  * Values and attributes get ids in Spark's string order, unsigned UTF-8
  * bytes; values that occur only once are included.
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
    * partition counts its own (value, attribute) pairs over the cells'
    * UTF-8 bytes, and the partial counts are collected. The driver merges
    * the partitions' names into ids, sorts the partials by (value id,
    * attribute id) and sums each run of equal pairs, so the result does not
    * depend on how the cells are partitioned.
    *
    * A partition gives its distinct values and attributes local ids, sorts
    * each dictionary in Spark's order (`UTF8String.binaryCompare`, unsigned
    * bytes), radix-sorts its cells by (value, attribute) and sums each run,
    * and ships its dictionaries as one byte array each, with its pairs as
    * int ids and counts. The driver holds, per partition, that partition's
    * dictionaries and distinct pairs: at most min(cells, partitions ×
    * distinct pairs) int pairs and counts. This is the number of distinct
    * pairs when no pair straddles partitions, as in `repro.data.TusGen`'s
    * lakes, which keep each column in one partition.
    * `spark.driver.maxResultSize` bounds the collect.
    *
    * The stage reads [[DataLake.normalizedCells]] through
    * `queryExecution.toRdd`, a Spark developer API, so the lake's query is
    * planned once and every call only scans and counts. The plan is fixed
    * at the lake's first use (see [[DataLake.normalizedCells]]).
    *
    * The per-cell and per-pair code is plain loops over primitive arrays:
    * no boxed count per cell and no generic collection method, so a call
    * allocates little and leaves the JIT less to compile while a JVM warms
    * up, when a call's time varies most.
    *
    * Every cell with a non-empty value needs a non-null attribute id.
    */
  def of(lake: DataLake): CellCounts = {
    val cells = lake.normalizedCells.queryExecution.toRdd
    val partials = cells.sparkContext.runJob(cells, CountPartition)
    require(!partials.exists(_.nullAttr), "every lake cell with a non-empty value needs a non-null attribute id")
    val (valueNames, valueId) = merge(partials.map(_.values))
    val (attrNames, attrId) = merge(partials.map(_.attrs))
    // The partials' pairs, in merged ids.
    val numRows = partials.map(_.occurrences.length).sum
    val v = new Array[Int](numRows)
    val a = new Array[Int](numRows)
    val occ = new Array[Long](numRows)
    var row = 0
    var p = 0
    while (p < partials.length) {
      val part = partials(p)
      var i = 0
      while (i < part.occurrences.length) {
        v(row) = valueId(p)(part.valueIds(i))
        a(row) = attrId(p)(part.attrIds(i))
        occ(row) = part.occurrences(i)
        i += 1; row += 1
      }
      p += 1
    }
    // A pair that straddles partitions has one partial per partition.
    val (valueIds, attrIds, occurrences) = sumPairs(v, valueNames.length, a, attrNames.length, occ)
    new CellCounts(valueNames, attrNames, valueIds, attrIds, occurrences)
  }

  /** One partition's counts: its distinct value and attribute names in
    * Spark's order, and its pairs as indexes into them, sorted.
    * `nullAttr` is set if a cell with a value had a null attribute id.
    */
  private final case class Partial(
      values: Names,
      attrs: Names,
      valueIds: Array[Int],
      attrIds: Array[Int],
      occurrences: Array[Long],
      nullAttr: Boolean)

  /** Distinct names as UTF-8 bytes: name `i` is `bytes` from `offsets(i)`
    * until `offsets(i + 1)`.
    */
  private final case class Names(bytes: Array[Byte], offsets: Array[Int]) {
    def size: Int = offsets.length - 1

    /** Name `i` against name `j` of `that`, by unsigned bytes. */
    def compare(i: Int, that: Names, j: Int): Int =
      java.util.Arrays.compareUnsigned(bytes, offsets(i), offsets(i + 1), that.bytes, that.offsets(j), that.offsets(j + 1))

    def string(i: Int): String = new String(bytes, offsets(i), offsets(i + 1) - offsets(i), UTF_8)
  }

  /** Counts one partition's cells. A named function, not a closure: Spark's
    * closure cleaner reads the bytecode of a closure's enclosing class on
    * every job, and has nothing to read here.
    */
  private object CountPartition extends (Iterator[InternalRow] => Partial) with Serializable {
    def apply(rows: Iterator[InternalRow]): Partial = {
      val values = new Dictionary
      val attrs = new Dictionary
      var cellValue = new Array[Int](1024)
      var cellAttr = new Array[Int](1024)
      var n = 0
      var nullAttr = false
      while (rows.hasNext) {
        val r = rows.next()
        if (r.isNullAt(0)) nullAttr = true
        else {
          if (n == cellValue.length) {
            cellValue = java.util.Arrays.copyOf(cellValue, 2 * n)
            cellAttr = java.util.Arrays.copyOf(cellAttr, 2 * n)
          }
          cellValue(n) = values.id(r.getUTF8String(1))
          cellAttr(n) = attrs.id(r.getUTF8String(0))
          n += 1
        }
      }
      val (valueNames, valueRank) = values.sorted
      val (attrNames, attrRank) = attrs.sorted
      var i = 0
      while (i < n) { cellValue(i) = valueRank(cellValue(i)); cellAttr(i) = attrRank(cellAttr(i)); i += 1 }
      val ones = new Array[Long](n)
      java.util.Arrays.fill(ones, 1L)
      val (valueIds, attrIds, occ) = sumPairs(
        java.util.Arrays.copyOf(cellValue, n), valueNames.size, java.util.Arrays.copyOf(cellAttr, n), attrNames.size, ones)
      Partial(valueNames, attrNames, valueIds, attrIds, occ, nullAttr)
    }
  }

  /** Local ids for the distinct strings of one partition, in order of first
    * sight. Keys are copied: the rows' strings may point into a reused buffer.
    */
  private final class Dictionary {
    private val ids = new java.util.HashMap[UTF8String, Integer]

    def id(s: UTF8String): Int = {
      val known = ids.get(s)
      if (known != null) known.intValue
      else { val id = ids.size; ids.put(s.copy(), id); id }
    }

    /** The names in Spark's order, and each local id's index among them. */
    def sorted: (Names, Array[Int]) = {
      val byName = ids.keySet.toArray(new Array[UTF8String](ids.size))
      java.util.Arrays.sort(byName, (x: UTF8String, y: UTF8String) => x.binaryCompare(y))
      val rank = new Array[Int](byName.length)
      val offsets = new Array[Int](byName.length + 1)
      var k = 0
      while (k < byName.length) {
        rank(ids.get(byName(k)).intValue) = k
        offsets(k + 1) = offsets(k) + byName(k).numBytes
        k += 1
      }
      val bytes = new Array[Byte](offsets(byName.length))
      k = 0
      while (k < byName.length) { byName(k).writeToMemory(bytes, Platform.BYTE_ARRAY_OFFSET + offsets(k)); k += 1 }
      (Names(bytes, offsets), rank)
    }
  }

  /** Merges dictionaries, each sorted by unsigned bytes and distinct, into
    * one sorted, distinct name array. `ids(p)(i)` is the merged id of entry
    * `i` of dictionary `p`.
    */
  private def merge(dicts: Array[Names]): (Array[String], Array[Array[Int]]) = {
    val ids = dicts.map(d => new Array[Int](d.size))
    val next = new Array[Int](dicts.length)
    val heads = new java.util.PriorityQueue[Integer](math.max(1, dicts.length),
      (p: Integer, q: Integer) => dicts(p).compare(next(p), dicts(q), next(q)))
    dicts.indices.foreach(p => if (dicts(p).size > 0) heads.add(p))
    val names = Array.newBuilder[String]
    var lastDict = -1 // where the last name taken came from
    var lastIndex = -1
    var id = -1
    while (!heads.isEmpty) {
      val p = heads.poll().intValue
      val i = next(p)
      if (lastDict < 0 || dicts(p).compare(i, dicts(lastDict), lastIndex) != 0) {
        id += 1
        names += dicts(p).string(i)
      }
      lastDict = p
      lastIndex = i
      ids(p)(i) = id
      next(p) += 1
      if (next(p) < dicts(p).size) heads.add(p)
    }
    (names.result(), ids)
  }

  /** The distinct (value, attribute) pairs among rows `(v(r), a(r))`,
    * values in `[0, numValues)` and attributes in `[0, numAttrs)`, sorted by
    * (value, attribute), each with the sum of its rows' `weight`.
    */
  private def sumPairs(
      v: Array[Int],
      numValues: Int,
      a: Array[Int],
      numAttrs: Int,
      weight: Array[Long]): (Array[Int], Array[Int], Array[Long]) = {
    // LSD radix sort: stable by attribute, then stable by value.
    val order = countingOrder(v, numValues, countingOrder(a, numAttrs, Array.range(0, v.length)))
    def startsRun(k: Int): Boolean = k == 0 || v(order(k)) != v(order(k - 1)) || a(order(k)) != a(order(k - 1))
    var runs = 0
    var k = 0
    while (k < order.length) { if (startsRun(k)) runs += 1; k += 1 }
    val pairValue = new Array[Int](runs)
    val pairAttr = new Array[Int](runs)
    val sum = new Array[Long](runs)
    var r = -1
    k = 0
    while (k < order.length) {
      val row = order(k)
      if (startsRun(k)) { r += 1; pairValue(r) = v(row); pairAttr(r) = a(row) }
      sum(r) += weight(row)
      k += 1
    }
    (pairValue, pairAttr, sum)
  }

  /** `rows` stably reordered by `key(row)`, a key in `[0, numKeys)`. */
  private def countingOrder(key: Array[Int], numKeys: Int, rows: Array[Int]): Array[Int] = {
    val start = new Array[Int](numKeys + 1)
    var i = 0
    while (i < rows.length) { start(key(rows(i)) + 1) += 1; i += 1 }
    var k = 0
    while (k < numKeys) { start(k + 1) += start(k); k += 1 }
    val out = new Array[Int](rows.length)
    i = 0
    while (i < rows.length) {
      val r = rows(i)
      out(start(key(r))) = r
      start(key(r)) += 1
      i += 1
    }
    out
  }
}
