package repro.eval

import repro.{Oracle, SparkSpec}
import repro.core.{LakeGraph, Lcc}
import repro.data.TusGen
import repro.lake.DataLake

class ExperimentsSpec extends SparkSpec {

  test("injectionRun finds planted homographs on a small TUS-I analogue") {
    val base = TusGen.Params(nDomains = 8, nColumns = 48, maxVocab = 400, seed = 5)
    val pct = Experiments.injectionRun(spark, base, count = 5, meanings = 2,
      minAttrCardinality = 100, seed = 5)
    assert(pct >= 60.0, s"found only $pct%")
  }

  test("runSB submits 1 Spark stage: the cell aggregation") {
    assert(stagesSubmitted(Experiments.runSB(spark, seed = 0)) === 1)
  }

  test("runSB pins the SB comparison on seed 0") {
    val r = Experiments.runSB(spark, seed = 0)
    assert((r.numValues, r.numAttrs, r.numEdges) === ((3008L, 34L, 5576L)))
    // Prf prints at the precision EXPERIMENTS.md records
    assert(r.bcPrf.toString === "P=0.636 R=0.636 F1=0.636")
    assert(r.lccPrf.toString === "P=0.418 R=0.418 F1=0.418")
    assert(r.d4Prf.toString === "P=1.000 R=0.218 F1=0.358")
    assert((r.d4Flagged, r.d4NumDomains, r.d4CoveredColumns) === ((12, 6, 16L)))
    assert(r.missedByBc === (0 until 20).map(i => f"HOMCODE_$i%03d").toSet)
    assert(r.missedCodeHomographs === 20)
  }

  /** Duplicate cells (X, Z and SOLO repeat), singletons (Y, W) and two
    * isolated values (SOLO and W are alone in their columns).
    */
  private def statsLake = DataLake.ofColumns(spark,
    "T.a" -> Seq("x", "y", "h", "x"),
    "U.b" -> Seq("h", "z", "x", " z"),
    "V.c" -> Seq("solo", "solo"),
    "W.d" -> Seq("w"))

  test("datasetStats counts agree with DuckDB on a tiny lake") {
    import spark.implicits._
    val lake = statsLake
    val stats = Experiments.datasetStats("tiny", lake, homographs = Set("H"), meanings = Map("H" -> 2))
    assert((stats.numAttrs, stats.numValues) === ((4L, 6L))) // X, Y, H, Z, SOLO, W
    assert(stats.numHomographs === 1)
    // H co-occurs with x,y in T.a and z,x in U.b -> |N(H)| = 3
    assert(stats.cardMin === 3 && stats.cardMax === 3)
    assert(stats.meaningsMin === 2 && stats.meaningsMax === 2)
    val cells = LakeGraph.normalizedCells(lake)
    Oracle.assertEquivalent(Seq((stats.numAttrs, stats.numValues)).toDF("attrs", "vals"),
      "SELECT count(DISTINCT attribute) AS attrs, count(DISTINCT value) AS vals FROM cells",
      "cells" -> cells)

    // |VN(v)| of every value, singletons and isolated values included,
    // against a self-join over the distinct (value, attribute) pairs
    val g = LakeGraph.build(lake, minOccurrences = 1)
    val card = Lcc.valueNeighbourCounts(g.csr)
    Oracle.assertEquivalent(g.valueNames.toSeq.zip(card.map(_.toLong)).toDF("value", "card"),
      """WITH e AS (SELECT DISTINCT value, attribute FROM cells)
        |SELECT e1.value, count(DISTINCT CASE WHEN e2.value <> e1.value THEN e2.value END) AS card
        |FROM e e1 JOIN e e2 ON e1.attribute = e2.attribute
        |GROUP BY e1.value""".stripMargin,
      "cells" -> cells)
  }

  test("datasetStats handles a lake with no homographs") {
    val lake = DataLake.ofColumns(spark, "T.a" -> Seq("x", "x", "y", "y"))
    val stats = Experiments.datasetStats("none", lake, Set.empty, Map.empty)
    assert(stats.numHomographs === 0)
    assert(stats.cardMin === 0 && stats.cardMax === 0)
    assert(stats.meaningsMin === 0 && stats.meaningsMax === 0)
  }

  test("datasetStats rejects a homograph that is not a normalized value of the lake") {
    for (h <- Seq("Q", "h")) {
      val e = intercept[IllegalArgumentException](Experiments.datasetStats("tiny", statsLake, Set("H", h), Map.empty))
      assert(e.getMessage.contains(s"homograph $h "), e.getMessage)
    }
  }

  test("datasetStats gives an isolated homograph Card(H) 0") {
    val stats = Experiments.datasetStats("tiny", statsLake, Set("SOLO"), Map.empty)
    assert((stats.cardMin, stats.cardMax) === ((0L, 0L)))
  }

  test("datasetStats counts an isolated homograph in the Card(H) range") {
    val stats = Experiments.datasetStats("tiny", statsLake, Set("H", "SOLO"), Map.empty)
    assert((stats.cardMin, stats.cardMax) === ((0L, 3L)))
  }

  test("datasetStats is one aggregation: 1 Spark stage") {
    val lake = statsLake
    assert(stagesSubmitted(Experiments.datasetStats("tiny", lake, Set("H", "SOLO"), Map.empty)) === 1)
  }
}
