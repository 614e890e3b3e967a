package repro.core

import repro.SparkSpec
import repro.lake.DataLake
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Reconstructs the paper's running example (Figure 1, four tables) and
  * checks the worked numbers of Example 3.6: LCC(Jaguar)=0.36,
  * LCC(Puma)=0.43, LCC(Toyota)=LCC(Panda)=0.46; BC ranks Jaguar and Puma
  * at the top among repeated values.
  */
class ExampleLakeSpec extends SparkSpec {

  // keep singletons: the worked example scores the full graph
  private lazy val graph = LakeGraph.build(ExampleLakeSpec.figure1Lake(spark), minOccurrences = 1)
  private lazy val csr = BipartiteGraph.toCsr(graph)
  private lazy val valueId: Map[String, Int] = {
    import spark.implicits._
    graph.values.as[(String, Long)].collect().map { case (v, id) => v -> id.toInt }.toMap
  }

  test("graph has the expected shape (37 values, 12 attributes)") {
    assert(graph.numAttrs === 12)
    assert(graph.numValues === 37)
    assert(csr.numNodes === 49)
  }

  test("LCC reproduces the paper's Example 3.6 numbers") {
    val lcc = Lcc.compute(spark, csr)
    assert(math.abs(lcc(valueId("JAGUAR")) - 0.357) < 0.005, s"jaguar=${lcc(valueId("JAGUAR"))}")
    assert(math.abs(lcc(valueId("PUMA")) - 0.433) < 0.005, s"puma=${lcc(valueId("PUMA"))}")
    assert(math.abs(lcc(valueId("TOYOTA")) - 0.458) < 0.005, s"toyota=${lcc(valueId("TOYOTA"))}")
    assert(math.abs(lcc(valueId("PANDA")) - 0.458) < 0.005, s"panda=${lcc(valueId("PANDA"))}")
  }

  test("exact LCC agrees with brute force on the example graph") {
    val got = Lcc.compute(spark, csr)
    val ref = Lcc.bruteForce(csr)
    assert(GraphFixtures.maxAbsDiff(got, ref) < 1e-12)
  }

  test("BC ranks Jaguar then Puma as the strongest homograph candidates") {
    val bc = Betweenness.exact(spark, csr, normalized = true)
    val valueScores = valueId.map { case (v, id) => v -> bc(id) }
    val ranked = valueScores.toSeq.sortBy(-_._2).map(_._1)
    assert(ranked.head === "JAGUAR", s"top=${ranked.take(5)}")
    assert(ranked(1) === "PUMA", s"top=${ranked.take(5)}")
    info(f"BC(JAGUAR)=${valueScores("JAGUAR")}%.4f (paper: 0.025)")
    info(f"BC(PUMA)=${valueScores("PUMA")}%.4f (paper: 0.003)")
    info(f"BC(TOYOTA)=${valueScores("TOYOTA")}%.4f (paper: 0.002)")
    info(f"BC(PANDA)=${valueScores("PANDA")}%.4f (paper: 0.002)")
    // same order of magnitude as the paper's normalized scores
    assert(valueScores("JAGUAR") > 0.01 && valueScores("JAGUAR") < 0.06)
  }

  test("exact BC agrees with the path-counting reference on the example graph") {
    val got = Betweenness.exact(spark, csr)
    val ref = GraphFixtures.bcReference(csr)
    assert(GraphFixtures.maxAbsDiff(got, ref) < 1e-8)
  }

  test("DomainNet end-to-end puts Jaguar and Puma in the BC top-2") {
    val res = DomainNet.score(spark, graph, csr, DomainNet.ExactBC)
    assert(res.topK(2).toSet === Set("JAGUAR", "PUMA"))
  }

  test("with default preprocessing, single-occurrence values are pruned") {
    val pruned = LakeGraph.build(ExampleLakeSpec.figure1Lake(spark)) // minOccurrences = 2
    import spark.implicits._
    val kept = pruned.values.as[(String, Long)].collect().map(_._1).toSet
    // repeated values survive
    assert(Set("JAGUAR", "PUMA", "PANDA", "TOYOTA", "2").subsetOf(kept))
    // singletons are gone
    assert(!kept.contains("GOOGLE"))
    assert(!kept.contains("PELICAN"))
    assert(!kept.contains("MEMPHIS"))
  }
}

object ExampleLakeSpec {

  /** The paper's Figure 1: four tables sharing Jaguar, Puma and Panda. */
  def figure1Lake(spark: SparkSession): DataLake = {
    import spark.implicits._
    val t1: DataFrame = Seq(
      ("Google", "Panda", "1M"),
      ("Volkswagen", "Puma", "2M"),
      ("BMW", "Jaguar", "0.9M"),
      ("Amazon", "Pelican", "1.5M"),
    ).toDF("Donor", "AtRisk", "Donation")
    val t2 = Seq(
      ("Panda", "Memphis", "2"),
      ("Panda", "Atlanta", "2"),
      ("Lemur", "National", "20"),
      ("Jaguar", "San Diego", "8"),
    ).toDF("name", "locale", "num")
    val t3 = Seq(
      ("XE", "Jaguar", "UK"),
      ("Prius", "Toyota", "Japan"),
      ("500", "Fiat", "Italy"),
    ).toDF("C1", "C2", "C3")
    val t4 = Seq(
      ("Jaguar", "25.80", "43224"),
      ("Puma", "4.64", "13000"),
      ("Apple", "456", "370870"),
      ("Toyota", "123", "123456"),
    ).toDF("Name", "Revenue", "Total")
    DataLake.fromTables(Seq("T1" -> t1, "T2" -> t2, "T3" -> t3, "T4" -> t4))
  }
}
