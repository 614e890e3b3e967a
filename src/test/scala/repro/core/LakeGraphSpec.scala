package repro.core

import repro.{Oracle, SparkSpec}
import repro.lake.DataLake
import org.apache.spark.sql.functions._

class LakeGraphSpec extends SparkSpec {

  private def smallLake = DataLake.ofColumns(spark,
    "T1.a" -> Seq("x", "y", "z", "x"),   // x repeats within the column
    "T1.b" -> Seq(" y ", "w"),           // y with whitespace -> normalized
    "T2.c" -> Seq("X", "q"),             // x lower/upper -> same node
  )

  test("normalization trims, upper-cases, and drops empty/null values") {
    import spark.implicits._
    val lake = DataLake.ofColumns(spark, "T.a" -> Seq("  a b ", "", "   ", "B", "a b"))
    val cells = lake.normalizedCells.as[(String, String)].collect()
    assert(cells.map(_._2).toSet === Set("A B", "B"))
    assert(cells.count(_._2 == "A B") === 2)
  }

  test("trim strips only U+0020: values padded with a tab or NBSP stay distinct") {
    import spark.implicits._
    val lake = DataLake.ofColumns(spark, "T.a" -> Seq(" x ", "\tx", "x\u00A0", "\u00A0x", "x\n", "x"))
    val values = lake.normalizedCells.as[(String, String)].collect().map(_._2)
    assert(values.toSeq.sorted === Seq("\tX", "X", "X", "X\n", "X\u00A0", "\u00A0X").sorted)
  }

  test("build runs 1 Spark stage") {
    val lake = smallLake
    assert(stagesSubmitted(LakeGraph.build(lake)) === 1)
  }

  test("build drops values occurring once and deduplicates edges") {
    import spark.implicits._
    val g = LakeGraph.build(smallLake)
    val vals = g.values.as[(String, Long)].collect().map(_._1).toSet
    // kept: X (3 cells), Y (2 cells); dropped singletons: z, w, q
    assert(vals === Set("X", "Y"))
    // X: edges to T1.a and T2.c (the within-column repeat dedupes); Y: T1.a, T1.b
    assert(g.numEdges === 4)
  }

  test("node ids are contiguous and bipartite-partitioned") {
    import spark.implicits._
    val g = LakeGraph.build(smallLake)
    val vIds = g.values.as[(String, Long)].collect().map(_._2).sorted
    val aIds = g.attrs.as[(String, Long)].collect().map(_._2).sorted
    assert(vIds.toSeq === (0L until g.numValues))
    assert(aIds.toSeq === (g.numValues until g.numValues + g.numAttrs))
  }

  test("graph build is deterministic") {
    val g1 = LakeGraph.build(smallLake)
    val g2 = LakeGraph.build(smallLake)
    assert(g1.valueNames.toSeq === g2.valueNames.toSeq)
    assert(g1.attrNames.toSeq === g2.attrNames.toSeq)
    assert(g1.csr.offsets.toSeq === g2.csr.offsets.toSeq)
    assert(g1.csr.neighbors.toSeq === g2.csr.neighbors.toSeq)
  }

  test("value and attribute ids follow Spark's string order, not String.compareTo") {
    import spark.implicits._
    import LakeGraphSpec.odd
    val lake = DataLake.ofColumns(spark,
      "T.é" -> odd, "T.\uFFFD" -> odd.take(4), "T.😀" -> odd.drop(4), "T.z" -> Seq("ab"))
    val g = LakeGraph.build(lake)
    val cells = lake.normalizedCells
    val values = cells.select("value").distinct().orderBy("value").as[String].collect().toSeq
    val attrs = cells.select("attribute").distinct().orderBy("attribute").as[String].collect().toSeq
    assert(g.valueNames.toSeq === values)
    assert(g.attrNames.toSeq === attrs)
    assert(values.sorted !== values, "the lake must tell UTF-16 order from UTF-8 order")
    assert(g.values.as[(String, Long)].collect().toSeq === values.zipWithIndex.map { case (v, i) => (v, i.toLong) })
    assert(g.attrs.as[(String, Long)].collect().toSeq ===
      attrs.zipWithIndex.map { case (a, i) => (a, (values.size + i).toLong) })
  }

  test("valueNames returns the id-indexed value vocabulary") {
    val lake = DataLake.ofColumns(spark,
      "T.a" -> Seq("x", "y", "x", "y"),
      "T.b" -> Seq("x", "z", "z", "q", "q"))
    val g = LakeGraph.build(lake)
    assert(g.valueNames.length === g.numValues)
    assert(g.valueNames.toSet === Set("X", "Y", "Z", "Q"))
    // ids are assigned in sorted-value order
    assert(g.valueNames.sorted.sameElements(g.valueNames))
  }

  test("requireIntIds bounds node ids and adjacency entries by Int") {
    LakeGraph.requireIntIds(Int.MaxValue - 5L, 5L, Int.MaxValue / 2)
    intercept[IllegalArgumentException](LakeGraph.requireIntIds(Int.MaxValue - 5L, 6L, 0L))
    intercept[IllegalArgumentException](LakeGraph.requireIntIds(1L, 1L, Int.MaxValue / 2 + 1L))
  }

  test("value degrees and attribute cardinalities agree with DuckDB") {
    val lake = DataLake.ofColumns(spark,
      "T.a" -> Seq("x", "y", "z"),
      "T.b" -> Seq("x", "y"),
      "U.c" -> Seq("x", "k", "k"))
    val cells = lake.normalizedCells
    val edges = cells.distinct()
    val degrees = edges.groupBy("value").agg(count(lit(1)).as("degree"))
    Oracle.assertEquivalent(
      degrees,
      "SELECT value, count(*) AS degree FROM (SELECT DISTINCT attribute, value FROM cells) GROUP BY value",
      "cells" -> cells)
    val cards = edges.groupBy("attribute").agg(count(lit(1)).as("cardinality"))
    Oracle.assertEquivalent(
      cards,
      "SELECT attribute, count(*) AS cardinality FROM (SELECT DISTINCT attribute, value FROM cells) GROUP BY attribute",
      "cells" -> cells)
  }

  test("value nodes of CSR degree >= 2 are exactly the values in >=2 attributes") {
    val lake = DataLake.ofColumns(spark,
      "T.a" -> Seq("x", "y", "y"),
      "T.b" -> Seq("x", "z", "z"))
    val g = LakeGraph.build(lake)
    // y and z repeat but only within one column
    assert((0 until g.numValues).filter(g.csr.degree(_) >= 2).map(g.valueNames(_)) === Seq("X"))
  }

  test("pruning with minOccurrences=1 keeps every distinct value") {
    val g = LakeGraph.build(smallLake, minOccurrences = 1)
    assert(g.numValues === 5) // X, Y, Z, W, Q ("X" and "x" merge)
  }

  test("CSR matches the DataFrame edge list") {
    import spark.implicits._
    val lake = smallLake
    val g = LakeGraph.build(lake, minOccurrences = 1)
    val csr = BipartiteGraph.toCsr(g)
    val dfEdges = lake.normalizedCells.distinct()
      .join(g.values, "value").join(g.attrs, "attribute")
      .select($"valueId".cast("int"), $"attrId".cast("int"))
      .as[(Int, Int)].collect()
    assert(csr.numNodes === g.numNodes)
    assert(csr.numEdges === dfEdges.length)
    val csrEdges = (0 until csr.numValues).flatMap(v => csr.neighborsOf(v).map(a => (v, a)))
    assert(csrEdges.toSet === dfEdges.toSet)
  }

  test("CSR value degrees and attribute cardinalities agree with DuckDB") {
    import spark.implicits._
    // smallLake's columns plus one that holds only singletons, so pruning
    // at minOccurrences = 2 drops an attribute as well
    val lake = DataLake.ofColumns(spark,
      "T1.a" -> Seq("x", "y", "z", "x"),
      "T1.b" -> Seq(" y ", "w"),
      "T2.c" -> Seq("X", "q"),
      "T3.d" -> Seq("u", "v"))
    for (minOcc <- Seq(1, 2)) {
      val g = LakeGraph.build(lake, minOccurrences = minOcc)
      val names = g.valueNames ++ g.attrNames
      val fromCsr = (0 until g.numNodes).map { v =>
        (if (v < g.numValues) "V" else "A", names(v), g.csr.degree(v).toLong)
      }.toDF("kind", "name", "n")
      Oracle.assertEquivalent(fromCsr,
        s"""WITH c AS (SELECT attribute, upper(trim(value)) AS value FROM cells
           |           WHERE value IS NOT NULL AND trim(value) <> ''),
           |     k AS (SELECT value FROM c GROUP BY value HAVING count(*) >= $minOcc),
           |     e AS (SELECT DISTINCT c.value, c.attribute FROM c JOIN k USING (value))
           |SELECT 'V' AS kind, value AS name, count(*) AS n FROM e GROUP BY value
           |UNION ALL
           |SELECT 'A' AS kind, attribute AS name, count(*) AS n FROM e GROUP BY attribute""".stripMargin,
        "cells" -> lake.cells)
    }
  }
}

object LakeGraphSpec {

  /** Strings whose UTF-8 (code point) order differs from UTF-16 order:
    * U+FFFD sorts before U+1F600 in UTF-8, after it in UTF-16, where the
    * emoji is a surrogate pair starting 0xD83D.
    */
  val odd: Seq[String] = Seq("a", "ab", "z", "é", "\uFFFD", "\uFFFDx", "😀", "😀x", "Ω")
}
