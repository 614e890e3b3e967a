package repro.d4

import repro.SparkSpec
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
    assert(r.multiDomainValueCount === 0)
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

  test("column clusters are labelled by their smallest column index") {
    val columns = Array("a", "b", "c", "d", "e", "f")
    val similar = Array("f" -> "d", "e" -> "b", "d" -> "c", "b" -> "e")
    assert(D4.clusterColumns(columns, similar, minDomainCols = 2) ===
      Map("b" -> 1L, "e" -> 1L, "c" -> 2L, "d" -> 2L, "f" -> 2L))
    assert(D4.clusterColumns(columns, similar, minDomainCols = 1)("a") === 0L)
    assert(D4.clusterColumns(columns, similar, minDomainCols = 3).keySet === Set("c", "d", "f"))
  }
}
