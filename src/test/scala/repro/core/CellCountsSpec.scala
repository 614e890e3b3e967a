package repro.core

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
      "cells" -> LakeGraph.normalizedCells(lake))
  }

  test("ids follow Spark's string order and pairs are sorted by (value, attribute)") {
    import spark.implicits._
    val counts = CellCounts.of(lake)
    val cells = LakeGraph.normalizedCells(lake)
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
}
