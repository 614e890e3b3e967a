package repro.core

import repro.SparkSpec
import GraphFixtures._

class BetweennessSpec extends SparkSpec {

  private def exact(csr: Csr): Array[Double] = Betweenness.exact(spark, csr)

  test("path graph v-a-w: only the middle (attribute) node has BC") {
    // one attribute containing two values => path of length 2
    val csr = csrOf(2, Seq(Seq(0, 1)))
    val bc = exact(csr)
    assert(bc(0) === 0.0)
    assert(bc(1) === 0.0)
    assert(bc(2) === 2.0) // ordered pairs (v,w) and (w,v)
  }

  test("star: attribute with k values has BC k(k-1)") {
    for (k <- 2 to 6) {
      val csr = csrOf(k, Seq(0 until k))
      val bc = exact(csr)
      assert(bc(k) === (k * (k - 1)).toDouble, s"k=$k")
      (0 until k).foreach(v => assert(bc(v) === 0.0))
    }
  }

  test("bridge value between two attributes dominates its column-mates") {
    // attr X = {bridge, a1, a2}, attr Y = {bridge, b1, b2}
    val csr = csrOf(5, Seq(Seq(0, 1, 2), Seq(0, 3, 4)))
    val bc = exact(csr)
    val bridge = bc(0)
    assert(Seq(1, 2, 3, 4).forall(v => bc(v) < bridge))
    assert(bc.zip(bcReference(csr)).forall { case (x, y) => math.abs(x - y) < 1e-9 })
  }

  test("isolated node graph: all zero") {
    val csr = Csr.fromEdges(3, 2, Iterator.empty)
    assert(exact(csr).forall(_ === 0.0))
  }

  for (seed <- 1 to 12)
    test(s"exact BC matches the independent path-counting reference (random graph, seed=$seed)") {
      val csr = randomCsr(numValues = 4 + seed, numAttrs = 2 + seed % 5, seed = seed)
      val got = exact(csr)
      val ref = bcReference(csr)
      assert(maxAbsDiff(got, ref) < 1e-8, s"seed=$seed")
    }

  for (k <- 2 to 7)
    test(s"star of $k values: normalized center BC equals k(k-1)/((n-1)(n-2))") {
      val csr = csrOf(k, Seq(0 until k))
      val bc = Betweenness.exact(spark, csr, normalized = true)
      val n = k + 1
      assert(math.abs(bc(k) - k.toDouble * (k - 1) / ((n - 1.0) * (n - 2.0))) < 1e-12)
    }

  test("exact BC on a disconnected graph matches reference") {
    // two components: {v0,v1}+attr0 and {v2,v3,v4}+attr1
    val csr = csrOf(5, Seq(Seq(0, 1), Seq(2, 3, 4)))
    assert(maxAbsDiff(exact(csr), bcReference(csr)) < 1e-9)
  }

  test("normalized BC divides by (n-1)(n-2)") {
    val csr = csrOf(2, Seq(Seq(0, 1))) // n=3: middle has BC 2 -> normalized 1
    val bc = Betweenness.exact(spark, csr, normalized = true)
    assert(math.abs(bc(2) - 1.0) < 1e-12)
  }

  test("approximate BC with full sample count equals exact") {
    val csr = randomCsr(10, 4, seed = 42)
    val ex = exact(csr)
    val ap = Betweenness.approximate(spark, csr, numSamples = csr.numNodes, seed = 1)
    assert(maxAbsDiff(ex, ap) < 1e-9)
  }

  test("approximate BC is close to exact and rank-preserving at the top") {
    val csr = randomCsr(numValues = 60, numAttrs = 12, seed = 7)
    val ex = exact(csr)
    val ap = Betweenness.approximate(spark, csr, numSamples = csr.numNodes / 2, seed = 3)
    // unbiased estimator: correlation of rankings should be strong; check
    // the top exact node is within the top-5 approximate nodes.
    val topExact = ex.zipWithIndex.maxBy(_._1)._2
    val top5Approx = ap.zipWithIndex.sortBy(-_._1).take(5).map(_._2).toSet
    assert(top5Approx.contains(topExact))
  }

  test("approximate BC is deterministic in the seed") {
    val csr = randomCsr(20, 5, seed = 11)
    val a = Betweenness.approximate(spark, csr, 8, seed = 5)
    val b = Betweenness.approximate(spark, csr, 8, seed = 5)
    assert(a.sameElements(b))
  }

  test("exact BC is bit-identical across runs on one CSR") {
    val csr = randomCsr(numValues = 120, numAttrs = 15, seed = 23)
    def bits(a: Array[Double]) = a.map(java.lang.Double.doubleToRawLongBits).toSeq
    assert(bits(exact(csr)) === bits(exact(csr)))
  }

  test("exact BC over many slices is within 1e-12 (relative) of a 1-slice computation") {
    val csr = randomCsr(numValues = 120, numAttrs = 15, seed = 29)
    val oneSlice = Betweenness.compute(spark, csr, Array.range(0, csr.numNodes), scale = 1.0, slices = 1)
    val got = exact(csr)
    assert(got.zip(oneSlice).forall { case (x, y) => math.abs(x - y) <= 1e-12 * math.max(1.0, math.abs(y)) })
  }

  test("complete bipartite K(v,a): all value nodes symmetric, all attr nodes symmetric") {
    val csr = csrOf(4, Seq(0 until 4, 0 until 4, 0 until 4))
    val bc = exact(csr)
    assert((1 until 4).forall(v => math.abs(bc(v) - bc(0)) < 1e-9))
    assert((5 until 7).forall(a => math.abs(bc(a) - bc(4)) < 1e-9))
    assert(maxAbsDiff(bc, bcReference(csr)) < 1e-9)
  }
}
