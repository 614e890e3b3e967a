package repro.eval

import repro.{Oracle, SparkSpec}
import repro.core.LakeGraph
import repro.data.TusGen
import repro.lake.DataLake

class ExperimentsSpec extends SparkSpec {

  test("injectionRun finds planted homographs on a small TUS-I analogue") {
    val base = TusGen.Params(nDomains = 8, nColumns = 48, maxVocab = 400, seed = 5)
    val pct = Experiments.injectionRun(spark, base, count = 5, meanings = 2,
      minAttrCardinality = 100, seed = 5, bcSampleFrac = 0.2)
    assert(pct >= 60.0, s"found only $pct%")
  }

  test("datasetStats counts agree with DuckDB on a tiny lake") {
    import org.apache.spark.sql.functions._
    val lake = DataLake.ofColumns(spark,
      "T.a" -> Seq("x", "y", "h"),
      "U.b" -> Seq("h", "z", "x"))
    val stats = Experiments.datasetStats(spark, "tiny", lake, 2,
      homographs = Set("H"), meanings = Map("H" -> 2))
    assert(stats.numAttrs === 2)
    assert(stats.numValues === 4) // X, Y, H, Z — X occurs in both columns
    assert(stats.numHomographs === 1)
    // H co-occurs with x,y in T.a and z,x in U.b -> |N(H)| = 3
    assert(stats.cardMin === 3 && stats.cardMax === 3)
    assert(stats.meaningsMin === 2 && stats.meaningsMax === 2)

    // oracle check of the distinct-edge counting underlying the stats
    val cells = LakeGraph.normalizedCells(lake)
    val counts = cells.distinct().groupBy("value").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(counts,
      "SELECT value, count(*) AS cnt FROM (SELECT DISTINCT attribute, value FROM cells) GROUP BY value",
      "cells" -> cells)
  }

  test("datasetStats handles a lake with no homographs") {
    val lake = DataLake.ofColumns(spark, "T.a" -> Seq("x", "x", "y", "y"))
    val stats = Experiments.datasetStats(spark, "none", lake, 1, Set.empty, Map.empty)
    assert(stats.numHomographs === 0)
    assert(stats.cardMin === 0 && stats.cardMax === 0)
    assert(stats.meaningsMin === 0 && stats.meaningsMax === 0)
  }
}
