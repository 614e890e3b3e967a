package repro.core

import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.functions.{countDistinct, spark_partition_id}
import repro.{Oracle, SparkSpec}
import repro.lake.DataLake

class CellCountsSpec extends SparkSpec {

  /** Duplicate cells, values occurring once, whitespace and case variants,
    * and a value whose UTF-16 order differs from its UTF-8 order.
    */
  private def lake = DataLake.ofColumns(spark,
    "T.b" -> Seq("x", "y", " x", "\uD83D\uDE00", "\uFFFD"),
    "T.a" -> Seq("X", "z", "z", "\uFFFD"),
    "U.c" -> Seq("y", "q", "", null))

  test("pair occurrences agree with DuckDB, singletons included") {
    import spark.implicits._
    val counts = CellCounts.of(lake)
    val got = (0 until counts.numPairs).map { i =>
      (counts.valueNames(counts.valueIds(i)), counts.attrNames(counts.attrIds(i)), counts.occurrences(i))
    }.toDF("value", "attribute", "occ")
    Oracle.assertEquivalent(got,
      "SELECT value, attribute, count(*) AS occ FROM cells GROUP BY value, attribute",
      "cells" -> lake.normalizedCells)
  }

  test("ids follow Spark's string order and pairs are sorted by (value, attribute)") {
    import spark.implicits._
    val counts = CellCounts.of(lake)
    val cells = lake.normalizedCells
    assert(counts.valueNames.toSeq === cells.select("value").distinct().orderBy("value").as[String].collect().toSeq)
    assert(counts.attrNames.toSeq === cells.select("attribute").distinct().orderBy("attribute").as[String].collect().toSeq)
    val pairs = counts.valueIds.zip(counts.attrIds).toSeq
    assert(pairs === pairs.sorted && pairs.distinct === pairs)
    val runs = Seq.newBuilder[(Int, Int, Int)]
    counts.foreachValue((v, from, until) => runs += ((v, from, until)))
    val expected = (0 until counts.numValues).map { v =>
      (v, counts.valueIds.indexOf(v), counts.valueIds.lastIndexOf(v) + 1)
    }
    assert(runs.result() === expected)
  }

  private def arrays(c: CellCounts) =
    (c.valueNames.toSeq, c.attrNames.toSeq, c.valueIds.toSeq, c.attrIds.toSeq, c.occurrences.toSeq)

  /** 48 cells of [[LakeGraphSpec.odd]] strings: fewer than 64, so 64
    * partitions leave some empty.
    */
  private def oddLake = {
    import LakeGraphSpec.odd
    DataLake.ofColumns(spark,
      "T.a" -> (0 until 24).map(i => odd(i % 5)),
      "T.\uFFFD" -> (0 until 20).map(i => odd(i % 9)),
      "T.\uD83D\uDE00" -> Seq(odd(6), "w", odd(6), "x"))
  }

  test("counts do not depend on how the cells are partitioned") {
    val original = oddLake
    val expected = arrays(CellCounts.of(original))
    val (values, attrs) = (expected._1, expected._2)
    assert(values.sorted != values && attrs.sorted != attrs, "the lake must tell UTF-16 order from UTF-8 order")
    for (n <- Seq(1, 7, 64)) {
      val cells = original.cells.repartition(n)
      // at 7 and 64 partitions some pair straddles partitions
      val part = cells.withColumn("part", spark_partition_id())
      val straddling = part.groupBy("value", "attribute").agg(countDistinct("part").as("parts")).filter("parts > 1")
      if (n > 1) assert(straddling.count() > 0, s"$n partitions")
      if (n == 64) assert(part.select("part").distinct().count() < n)
      assert(arrays(CellCounts.of(DataLake(cells, original.numTables))) === expected, s"$n partitions")
    }
  }

  test("two calls on one lake give identical arrays and submit 1 stage each") {
    val l = oddLake
    var first, second: CellCounts = null
    assert(stagesSubmitted { first = CellCounts.of(l) } === 1)
    assert(stagesSubmitted { second = CellCounts.of(l) } === 1)
    assert(arrays(first) === arrays(second))
  }

  test("a copy with new cells is planned afresh and counts the same") {
    val l = oddLake
    val expected = arrays(CellCounts.of(l))
    def readsCache(lake: DataLake) =
      lake.normalizedCells.queryExecution.executedPlan.exists(_.isInstanceOf[InMemoryTableScanExec])
    val cached = l.cells.cache()
    try {
      // l was planned before the cache, so it keeps scanning its source
      assert(!readsCache(l))
      val fresh = l.copy(cells = cached)
      assert(readsCache(fresh))
      assert(arrays(CellCounts.of(fresh)) === expected)
    } finally cached.unpersist()
  }

  test("an empty lake and a lake of null or empty values have no pairs") {
    for (l <- Seq(DataLake.ofColumns(spark), DataLake.ofColumns(spark, "T.a" -> Seq(null, "", " "), "T.b" -> Seq(null)))) {
      val c = CellCounts.of(l)
      assert((c.numPairs, c.numValues, c.numAttrs) === ((0, 0, 0)))
    }
  }

  test("a cell with a value and a null attribute id is rejected") {
    import spark.implicits._
    val mixed = Seq(("T.a", "x"), (null, "y"), ("T.a", "y"))
    val onlyNull = Seq((null: String, "x"), (null, "x"))
    for (cells <- Seq(mixed, onlyNull)) {
      val l = DataLake.fromCells(cells.toDF("attribute", "value"), numTables = 1)
      val e = intercept[IllegalArgumentException](CellCounts.of(l))
      assert(e.getMessage.contains("non-null attribute id"))
    }
  }
}
