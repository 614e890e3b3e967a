package repro.core

import repro.SparkSpec
import repro.lake.DataLake

class DomainNetSpec extends SparkSpec {

  /** Two domains bridged by one homograph plus an unambiguous repeat. */
  private def lake = DataLake.ofColumns(spark,
    "T1.animal" -> Seq("JAGUAR", "DOG", "FOX", "OWL", "DOG", "FOX", "OWL", "JAGUAR"),
    "T2.animal" -> Seq("DOG", "FOX", "OWL", "EMU", "DOG", "FOX", "OWL", "EMU"),
    "T1.car" -> Seq("JAGUAR", "FIAT", "AUDI", "OPEL", "FIAT", "AUDI", "OPEL", "JAGUAR"),
    "T2.car" -> Seq("FIAT", "AUDI", "OPEL", "SAAB", "FIAT", "AUDI", "OPEL", "SAAB"),
  )

  test("run with exact BC ranks the bridging homograph first") {
    val res = DomainNet.run(spark, lake, DomainNet.ExactBC)
    assert(res.topK(1) === Seq("JAGUAR"))
  }

  test("run with approximate BC agrees with exact on the top candidate") {
    val res = DomainNet.run(spark, lake, DomainNet.ApproxBC(numSamples = 6, seed = 3))
    assert(res.topK(1) === Seq("JAGUAR"))
  }

  test("run with LCC ranks the homograph lowest-coefficient first") {
    val res = DomainNet.run(spark, lake, DomainNet.LCC)
    assert(res.topK(1) === Seq("JAGUAR"))
  }

  test("order ranks every value node exactly once") {
    val res = DomainNet.run(spark, lake, DomainNet.ExactBC)
    assert(res.order.sorted.toSeq === (0 until res.graph.numValues))
    assert(res.score.length === res.graph.numValues)
    assert(res.topK(res.graph.numValues) === res.order.map(res.graph.valueNames(_)).toSeq)
  }

  test("rank orders by score in either direction with stable ties") {
    val names = Array("a", "b", "c", "d")
    val scores = Array(1.0, 3.0, 1.0, 2.0)
    assert(DomainNet.rank(scores, ascending = false).map(names).toSeq === Seq("b", "d", "a", "c"))
    assert(DomainNet.rank(scores, ascending = true).map(names).toSeq === Seq("a", "c", "d", "b"))
  }

  test("rank orders like a Spark orderBy on score with a valueId tie-break") {
    import spark.implicits._
    import org.apache.spark.sql.functions.col
    val score = Array(0.5, 0.0, 0.25, 0.5, 1.0, 0.0, 0.25, 1e-9, 0.5)
    val df = score.toSeq.zipWithIndex.map { case (s, i) => (i, s) }.toDF("valueId", "score")
    for (ascending <- Seq(true, false)) {
      val bySpark = df.orderBy(if (ascending) col("score").asc else col("score").desc, col("valueId").asc)
        .select("valueId").as[Int].collect()
      assert(DomainNet.rank(score, ascending).toSeq === bySpark.toSeq, s"ascending=$ascending")
    }
  }

  test("empty and all-singleton lakes give an empty ranking for every measure") {
    val empty = DataLake.ofColumns(spark)
    val singletons = DataLake.ofColumns(spark, "T.a" -> Seq("x", "y"), "T.b" -> Seq("z"))
    for (l <- Seq(empty, singletons);
         m <- Seq(DomainNet.ExactBC, DomainNet.ApproxBC(numSamples = 3), DomainNet.LCC)) {
      val res = DomainNet.run(spark, l, m)
      assert(res.graph.numNodes === 0)
      assert(res.order.isEmpty && res.topK(10).isEmpty, s"$m")
    }
  }

  test("run with exact BC submits 1 Spark stage: the cell aggregation") {
    val l = lake
    assert(stagesSubmitted(DomainNet.run(spark, l, DomainNet.ExactBC)) === 1)
  }

  test("run with LCC submits 1 Spark stage: the cell aggregation") {
    val l = lake
    assert(stagesSubmitted(DomainNet.run(spark, l, DomainNet.LCC)) === 1)
  }

  test("run leaves no persisted RDDs behind") {
    // a lake no other test uses, so no cached plan from an earlier run is reused
    val fresh = DataLake.ofColumns(spark,
      "P1.fish" -> Seq("COD", "EEL", "COD", "EEL"),
      "P2.fish" -> Seq("COD", "RAY", "RAY"))
    val before = spark.sparkContext.getPersistentRDDs.keySet
    for (m <- Seq(DomainNet.ExactBC, DomainNet.ApproxBC(numSamples = 2), DomainNet.LCC))
      assert(DomainNet.run(spark, fresh, m).topK(3).size === 3, s"$m")
    assert(spark.sparkContext.getPersistentRDDs.keySet === before)
  }

  test("ranking is deterministic across runs") {
    val r1 = DomainNet.run(spark, lake, DomainNet.ExactBC).topK(8)
    val r2 = DomainNet.run(spark, lake, DomainNet.ExactBC).topK(8)
    assert(r1 === r2)
  }

  test("BC scores in the result are normalized to [0, 1]") {
    val res = DomainNet.run(spark, lake, DomainNet.ExactBC)
    assert(res.score.forall(s => s >= 0.0 && s <= 1.0))
  }

  test("score() reuses a pre-built graph consistently with run()") {
    val graph = LakeGraph.build(lake)
    val csr = BipartiteGraph.toCsr(graph)
    val viaScore = DomainNet.score(spark, graph, csr, DomainNet.ExactBC).topK(5)
    val viaRun = DomainNet.run(spark, lake, DomainNet.ExactBC).topK(5)
    assert(viaScore === viaRun)
  }
}
