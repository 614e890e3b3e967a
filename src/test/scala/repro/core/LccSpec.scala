package repro.core

import repro.SparkSpec
import GraphFixtures._

class LccSpec extends SparkSpec {

  test("single attribute: every value has LCC 1 (identical attribute sets)") {
    val csr = csrOf(4, Seq(Seq(0, 1, 2, 3)))
    val lcc = Lcc.compute(spark, csr)
    assert(lcc.forall(x => math.abs(x - 1.0) < 1e-12))
  }

  test("value alone in its attribute has LCC 0") {
    val csr = csrOf(3, Seq(Seq(0), Seq(1, 2)))
    val lcc = Lcc.compute(spark, csr)
    assert(lcc(0) === 0.0)
    assert(math.abs(lcc(1) - 1.0) < 1e-12)
  }

  test("bridge value spanning two attributes scores lower than column-mates") {
    val csr = csrOf(5, Seq(Seq(0, 1, 2), Seq(0, 3, 4)))
    val lcc = Lcc.compute(spark, csr)
    // bridge: VN = {1,2,3,4}, each c = J({X,Y},{X}) = 1/2 -> LCC = 0.5
    assert(math.abs(lcc(0) - 0.5) < 1e-12)
    // a1: VN = {bridge, a2}: c(bridge)=1/2, c(a2)=1 -> 0.75
    assert(math.abs(lcc(1) - 0.75) < 1e-12)
    assert(Seq(1, 2, 3, 4).forall(v => lcc(v) > lcc(0)))
  }

  for (seed <- 1 to 12)
    test(s"class-factored LCC matches brute force (random graph, seed=$seed)") {
      val csr = randomCsr(numValues = 5 + seed, numAttrs = 2 + seed % 5, seed = 100 + seed)
      val got = Lcc.compute(spark, csr)
      val ref = Lcc.bruteForce(csr)
      assert(maxAbsDiff(got, ref) < 1e-12, s"seed=$seed")
    }

  /** |VN(u)| from the definition: the other values sharing an attribute with u. */
  private def valueNeighbourCountsByDefinition(csr: Csr): Array[Int] =
    Array.tabulate(csr.numValues) { u =>
      val vn = scala.collection.mutable.Set.empty[Int]
      csr.foreachNeighbor(u)(a => csr.foreachNeighbor(a)(vn += _))
      (vn - u).size
    }

  for ((name, csr) <- classHeavyInputs)
    test(s"class-factored LCC and |VN| match brute force ($name)") {
      assert(maxAbsDiff(Lcc.compute(spark, csr), Lcc.bruteForce(csr)) < 1e-12, name)
      assert(Lcc.valueNeighbourCounts(csr).toSeq === valueNeighbourCountsByDefinition(csr).toSeq, name)
    }

  for (nAttrs <- 1 to 4)
    test(s"LCC bounds hold on random graph with $nAttrs attributes") {
      val csr = randomCsr(numValues = 12, numAttrs = nAttrs, seed = 500 + nAttrs)
      val lcc = Lcc.compute(spark, csr)
      assert(lcc.forall(x => x >= 0.0 && x <= 1.0))
    }

  test("LCC matches brute force on overlapping-attribute graphs") {
    // three attributes with chained overlaps
    val csr = csrOf(6, Seq(Seq(0, 1, 2), Seq(2, 3, 4), Seq(4, 5, 0)))
    assert(maxAbsDiff(Lcc.compute(spark, csr), Lcc.bruteForce(csr)) < 1e-12)
  }

  test("values with identical attribute sets get identical LCC") {
    val csr = csrOf(6, Seq(Seq(0, 1, 2, 3), Seq(0, 1, 4, 5)))
    val lcc = Lcc.compute(spark, csr)
    assert(lcc(0) === lcc(1)) // both in attrs {0,1}
    assert(lcc(2) === lcc(3)) // both only in attr 0
    assert(lcc(4) === lcc(5)) // both only in attr 1
  }
}
