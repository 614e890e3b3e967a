package repro.d4

import repro.{Oracle, SparkSpec}
import repro.core.CellCounts
import repro.data.SyntheticBenchmark
import repro.lake.DataLake

class D4Spec extends SparkSpec {

  /** Two clean domains across two column pairs + one isolated column. */
  private def cleanLake = DataLake.ofColumns(spark,
    "T1.animal" -> Seq("CAT", "DOG", "FOX", "OWL"),
    "T2.animal" -> Seq("CAT", "DOG", "FOX", "EMU"),
    "T1.city"   -> Seq("ROME", "OSLO", "LIMA", "KIEV"),
    "T2.city"   -> Seq("ROME", "OSLO", "LIMA", "BAKU"),
    "T3.movie"  -> Seq("ALIEN", "HEAT", "UP"),
  )

  test("discovers one domain per strongly-overlapping column cluster") {
    val r = D4.run(spark, cleanLake)
    assert(r.numDomains === 2)
    assert(r.coveredColumns === 4) // the movie column gets no domain
  }

  test("no homographs in a clean lake") {
    val r = D4.run(spark, cleanLake)
    assert(r.homographs.isEmpty)
  }

  test("a balanced cross-domain value is flagged as a homograph") {
    val lake = DataLake.ofColumns(spark,
      "T1.animal" -> Seq("JAGUAR", "DOG", "FOX", "OWL"),
      "T2.animal" -> Seq("JAGUAR", "DOG", "FOX", "EMU"),
      "T1.car" -> Seq("JAGUAR", "FIAT", "AUDI", "OPEL"),
      "T2.car" -> Seq("JAGUAR", "FIAT", "AUDI", "SAAB"),
    )
    val r = D4.run(spark, lake)
    assert(r.numDomains === 2)
    assert(r.homographs === Set("JAGUAR"))
  }

  test("dominant-meaning absorption: unbalanced homographs are missed") {
    // JAGUAR occurs once in the car domain but many times among animals:
    // support 4 vs 1 -> the car meaning is pruned at dominance=0.6.
    val lake = DataLake.ofColumns(spark,
      "T1.animal" -> Seq("JAGUAR", "JAGUAR", "DOG", "FOX", "OWL"),
      "T2.animal" -> Seq("JAGUAR", "JAGUAR", "DOG", "FOX", "EMU"),
      "T1.car" -> Seq("JAGUAR", "FIAT", "AUDI", "OPEL"),
      "T2.car" -> Seq("FIAT", "AUDI", "OPEL", "SAAB"),
    )
    val r = D4.run(spark, lake, D4.Config(dominance = 0.6))
    assert(r.homographs.isEmpty)
    // with dominance disabled the homograph is found
    val r2 = D4.run(spark, lake, D4.Config(dominance = 0.0))
    assert(r2.homographs === Set("JAGUAR"))
  }

  test("coverage failure: homographs in unclustered columns are invisible") {
    // the movie column has no similar peer -> no domain -> HEAT is missed
    val lake = DataLake.ofColumns(spark,
      "T1.animal" -> Seq("CAT", "DOG", "FOX", "OWL"),
      "T2.animal" -> Seq("CAT", "DOG", "FOX", "EMU"),
      "T3.movie"  -> Seq("CAT", "HEAT", "UP"),
    )
    val r = D4.run(spark, lake)
    assert(r.numDomains === 1)
    assert(r.homographs.isEmpty) // CAT spans animal+movie but movie has no domain
  }

  test("tau controls clustering granularity") {
    val lake = DataLake.ofColumns(spark,
      "T1.a" -> Seq("X", "Y", "Z", "W"),
      "T2.a" -> Seq("X", "Y", "P", "Q"), // jaccard 2/6 = 0.33
    )
    assert(D4.run(spark, lake, D4.Config(tau = 0.3)).numDomains === 1)
    assert(D4.run(spark, lake, D4.Config(tau = 0.4)).numDomains === 0)
  }

  test("value assignment statistics") {
    val r = D4.run(spark, cleanLake)
    assert(r.homographs.size === 0)
    assert(r.avgDomainsPerValue === 1.0)
  }

  test("empty-overlap lake discovers no domains") {
    val lake = DataLake.ofColumns(spark,
      "T1.a" -> Seq("A", "B"),
      "T2.b" -> Seq("C", "D"),
    )
    val r = D4.run(spark, lake)
    assert(r.numDomains === 0)
    assert(r.homographs.isEmpty)
    assert(r.avgDomainsPerValue === 0.0)
  }

  test("run leaves no persisted RDDs behind") {
    // a lake no other test uses, so no cached plan from an earlier run is reused
    val lake = DataLake.ofColumns(spark,
      "P1.fish" -> Seq("COD", "EEL", "RAY"),
      "P2.fish" -> Seq("COD", "EEL", "GAR"))
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val r = D4.run(spark, lake)
    assert(r.numDomains === 1)
    assert(spark.sparkContext.getPersistentRDDs.keySet === before)
  }

  /** Duplicate cells, values occurring once, two domains (at tau 0.2) and
    * one column with no similar peer (T4.m).
    */
  private def oracleLake = DataLake.ofColumns(spark,
    "T1.a" -> Seq("CAT", "CAT", "DOG", "FOX", "OWL", "EMU"),
    "T2.a" -> Seq("CAT", "DOG", "DOG", "FOX", "YAK"),
    "T3.a" -> Seq("CAT", "DOG", "GNU", "GNU", "ELK", "ASP"),
    "T4.m" -> Seq("UP", "HEAT", "CAT", "UP"),
    "U1.c" -> Seq("ROME", "OSLO", "ROME", "LIMA"),
    "U2.c" -> Seq("ROME", "OSLO", "LIMA", "BAKU", "CAT"),
  )

  test("similar column pairs agree with DuckDB") {
    import spark.implicits._
    val cells = oracleLake.normalizedCells
    val counts = CellCounts.of(oracleLake)
    for (tau <- Seq(0.0, 0.2, 0.35, 0.5, 0.6)) {
      val got = D4.similarPairs(counts, tau).toSeq
        .map { case (a, b) => (counts.attrNames(a), counts.attrNames(b)) }.toDF("a1", "a2")
      Oracle.assertEquivalent(got,
        s"""WITH e AS (SELECT DISTINCT value, attribute FROM cells),
           |     card AS (SELECT attribute, count(*) AS card FROM e GROUP BY attribute),
           |     ov AS (SELECT e1.attribute AS a1, e2.attribute AS a2, count(*) AS overlap
           |            FROM e e1 JOIN e e2 ON e1.value = e2.value AND e1.attribute < e2.attribute
           |            GROUP BY e1.attribute, e2.attribute)
           |SELECT a1, a2 FROM ov
           |JOIN card c1 ON c1.attribute = a1 JOIN card c2 ON c2.attribute = a2
           |WHERE CAST(overlap AS DOUBLE) / CAST(c1.card + c2.card - overlap AS DOUBLE) >= $tau""".stripMargin,
        "cells" -> cells)
    }
  }

  test("per-(value, domain) supports agree with DuckDB") {
    import spark.implicits._
    val cells = oracleLake.normalizedCells
    val counts = CellCounts.of(oracleLake)
    val domains = D4.clusterColumns(counts.numAttrs, D4.similarPairs(counts, tau = 0.2), minDomainCols = 2)
    val named = counts.attrNames.indices.collect { case c if domains(c) >= 0 => (counts.attrNames(c), domains(c).toLong) }
    assert(named.map(_._2).toSet.size === 2 && !named.exists(_._1 == "T4.m"))
    val got = D4.supports(counts, domains).toSeq
      .map { case (v, d, n) => (counts.valueNames(v), d.toLong, n) }.toDF("value", "domainId", "support")
    Oracle.assertEquivalent(got,
      """SELECT c.value, d.domainId, count(*) AS support
        |FROM cells c JOIN domains d ON c.attribute = d.attribute
        |GROUP BY c.value, d.domainId""".stripMargin,
      "cells" -> cells, "domains" -> named.toDF("attribute", "domainId"))
  }

  test("an empty lake gives an empty result") {
    assert(D4.run(spark, DataLake.ofColumns(spark)) === D4.Result(Map.empty, Map.empty))
  }

  test("run is one aggregation: 1 Spark stage") {
    val lake = oracleLake
    assert(stagesSubmitted(D4.run(spark, lake)) === 1)
  }

  // Recorded before D4's column overlaps, clustering and supports moved to
  // the driver; any change here is a change in D4's output on SB. Seeds 2
  // and 3 were re-recorded when SB stopped overwriting planted homographs,
  // which changed those two lakes.
  private val sbGolden = Seq(
    1L -> Seq("HOMCITYNAME_000", "HOMCITYNAME_001", "HOMCITYNAME_002", "HOMCITYNAME_003", "HOMCITYNAME_004",
      "HOMCITYNAME_005", "HOMCITYNAME_006", "HOMCITYNAME_007", "HOMCOCAR_000", "HOMCOCAR_001", "HOMCOCAR_002",
      "HOMCOUNTRYCITY_002"),
    2L -> Seq("HOMCITYCAR_002", "HOMCITYNAME_000", "HOMCITYNAME_001", "HOMCITYNAME_002", "HOMCITYNAME_004",
      "HOMCITYNAME_005", "HOMCITYNAME_007", "HOMCOCAR_000", "HOMCOCAR_001", "HOMCOCAR_002", "HOMCOUNTRYCITY_000",
      "HOMCOUNTRYCITY_001", "HOMCOUNTRYCITY_002", "HOMCOUNTRYCITY_003", "HOMCOUNTRYCITY_004"),
    3L -> Seq("HOMCITYNAME_000", "HOMCITYNAME_001", "HOMCITYNAME_002", "HOMCITYNAME_003", "HOMCITYNAME_004",
      "HOMCITYNAME_005", "HOMCITYNAME_006", "HOMCITYNAME_007", "HOMCOCAR_000", "HOMCOCAR_001", "HOMCOCAR_002",
      "HOMCOUNTRYCITY_001"))

  for ((seed, homographs) <- sbGolden)
    test(s"SB seed $seed: 6 domains and the recorded homographs (tau 0.35, dominance 0.35)") {
      val lake = SyntheticBenchmark.generate(spark, seed).lake
      val r = D4.run(spark, lake, D4.Config(tau = 0.35, dominance = 0.35))
      assert(r.numDomains === 6)
      assert(r.homographs === homographs.toSet)
    }

  test("column clusters are labelled by their smallest column index") {
    val similar = Array(5 -> 3, 4 -> 1, 3 -> 2, 1 -> 4)
    assert(D4.clusterColumns(6, similar, minDomainCols = 2).toSeq === Seq(-1, 1, 2, 2, 1, 2))
    assert(D4.clusterColumns(6, similar, minDomainCols = 1)(0) === 0)
    assert(D4.clusterColumns(6, similar, minDomainCols = 3).toSeq === Seq(-1, -1, 2, 2, -1, 2))
  }
}
