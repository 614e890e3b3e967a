package repro.core

import java.util.concurrent.{Callable, ForkJoinPool}
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

  // Exact BC runs one BFS per class and folds leaves into their attribute;
  // the class-heavy inputs exercise both.
  private val referenceInputs: Seq[(String, Csr)] =
    (1 to 12).map(seed => s"random graph, seed=$seed" -> randomCsr(numValues = 4 + seed, numAttrs = 2 + seed % 5, seed = seed)) ++
      classHeavyInputs

  for ((name, csr) <- referenceInputs)
    test(s"exact BC matches the independent path-counting reference ($name)") {
      val got = exact(csr)
      val ref = bcReference(csr)
      assert(maxAbsDiff(got, ref) <= 1e-12 * math.max(1.0, ref.max), name)
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

  test("exact BC is bit-identical on the common pool and in pools of 1 and 3 threads") {
    val csr = disjointUnion(pooledCsr(300, 25, numSets = 30, leafFrac = 0.3, isolated = 3, seed = 37), randomCsr(60, 8, seed = 38))
    def bits(a: Array[Double]) = a.map(java.lang.Double.doubleToRawLongBits).toSeq
    // a parallel stream started from a pool's task runs in that pool
    def inPool(threads: Int): Array[Double] = {
      val pool = new ForkJoinPool(threads)
      try pool.submit(new Callable[Array[Double]] { def call() = exact(csr) }).get()
      finally pool.shutdown()
    }
    val common = bits(exact(csr))
    assert(bits(inPool(1)) === common)
    assert(bits(inPool(3)) === common)
  }

  test("exact and approximate BC submit no Spark stage") {
    val csr = randomCsr(numValues = 60, numAttrs = 12, seed = 41)
    assert(stagesSubmitted(exact(csr)) === 0)
    assert(stagesSubmitted(Betweenness.approximate(spark, csr, numSamples = 20, seed = 7)) === 0)
  }

  test("exact BC over many slices is within 1e-12 (relative) of a 1-slice computation") {
    val csr = randomCsr(numValues = 120, numAttrs = 15, seed = 29)
    val (sources, weights) = Betweenness.exactSources(csr)
    val oneSlice = Betweenness.compute(csr, sources, weights, scale = 1.0, slices = 1)
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

  test("rounded BC rankings are identical at 1, 4 and 16 slices and across runs") {
    val csr = disjointUnion(pooledCsr(400, 30, numSets = 40, leafFrac = 0.3, isolated = 5, seed = 31), randomCsr(40, 6, seed = 32))
    val n = csr.numNodes
    // as DomainNet.score ranks: normalized, rounded to 1e-9, value nodes only
    def ranking(sources: Array[Int], weights: Array[Int], scale: Double, slices: Int): Seq[Int] = {
      val bc = Betweenness.normalize(Betweenness.compute(csr, sources, weights, scale, slices))
      DomainNet.rank(Array.tabulate(csr.numValues)(i => math.rint(bc(i) * 1e9) / 1e9), ascending = false).toSeq
    }
    val (exactSrc, exactW) = Betweenness.exactSources(csr)
    val sampled = Betweenness.sampledSources(n, 50, seed = 7)
    val cases = Seq(
      "ExactBC" -> ((s: Int) => ranking(exactSrc, exactW, 1.0, s)),
      "ApproxBC" -> ((s: Int) => ranking(sampled, Array.fill(50)(1), n / 50.0, s)))
    for ((name, rankAt) <- cases) {
      val runs = for (slices <- Seq(1, 4, 16); _ <- 1 to 2) yield rankAt(slices)
      assert(runs.distinct.size === 1, name)
    }
    val viaExact = Betweenness.exact(spark, csr, normalized = true)
    assert(DomainNet.rank(Array.tabulate(csr.numValues)(i => math.rint(viaExact(i) * 1e9) / 1e9), ascending = false).toSeq ===
      ranking(exactSrc, exactW, 1.0, 1))
  }
}
