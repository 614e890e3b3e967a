package repro.core

/** Shared helpers for core graph tests: direct CSR construction, an
  * independent brute-force betweenness reference, and random bipartite
  * graph generation.
  */
object GraphFixtures {

  /** Build a CSR from attribute membership lists. `attrs(i)` is the list of
    * value ids (each in `[0, numValues)`) contained in attribute i, whose
    * node id becomes `numValues + i`.
    */
  def csrOf(numValues: Int, attrs: Seq[Seq[Int]]): Csr = {
    val edges = for {
      (vals, ai) <- attrs.zipWithIndex
      v <- vals.distinct
    } yield (v, numValues + ai)
    Csr.fromEdges(numValues + attrs.size, numValues, edges.iterator)
  }

  /** Brute-force betweenness per the paper's Eq. (2), computed from
    * all-pairs BFS path counts with the combinatorial identity
    * `σ_vw(u) = σ_vu · σ_uw` iff `d(v,u) + d(u,w) = d(v,w)` — deliberately
    * a different algorithm from Brandes so the two validate each other.
    * Ordered-pair convention, unnormalized.
    */
  def bcReference(csr: Csr): Array[Double] = {
    val n = csr.numNodes
    val dist = Array.fill(n, n)(-1)
    val sigma = Array.fill(n, n)(0.0)
    for (s <- 0 until n) {
      val queue = scala.collection.mutable.Queue(s)
      dist(s)(s) = 0; sigma(s)(s) = 1.0
      while (queue.nonEmpty) {
        val v = queue.dequeue()
        csr.foreachNeighbor(v) { w =>
          if (dist(s)(w) < 0) { dist(s)(w) = dist(s)(v) + 1; queue.enqueue(w) }
          if (dist(s)(w) == dist(s)(v) + 1) sigma(s)(w) += sigma(s)(v)
        }
      }
    }
    Array.tabulate(n) { u =>
      var acc = 0.0
      for {
        v <- 0 until n if v != u
        w <- 0 until n if w != u && w != v
        if sigma(v)(w) > 0 && dist(v)(u) >= 0 && dist(u)(w) >= 0
        if dist(v)(u) + dist(u)(w) == dist(v)(w)
      } acc += sigma(v)(u) * sigma(u)(w) / sigma(v)(w)
      acc
    }
  }

  /** Deterministic random bipartite graph: each of `numAttrs` attributes
    * holds a random subset of the `numValues` values.
    */
  def randomCsr(numValues: Int, numAttrs: Int, seed: Long): Csr = {
    val rnd = new scala.util.Random(seed)
    val attrs = Seq.fill(numAttrs) {
      val size = 1 + rnd.nextInt(math.max(1, numValues - 1))
      rnd.shuffle((0 until numValues).toList).take(size)
    }
    csrOf(numValues, attrs)
  }

  /** Deterministic random bipartite graph with structurally equivalent
    * values: each value takes one of `numSets` random attribute sets (of
    * ≥2 attributes), or with probability `leafFrac` a single random
    * attribute; the last `isolated` values have no attribute.
    */
  def pooledCsr(numValues: Int, numAttrs: Int, numSets: Int, leafFrac: Double, isolated: Int, seed: Long): Csr = {
    val rnd = new scala.util.Random(seed)
    val sets = IndexedSeq.fill(numSets) {
      rnd.shuffle((0 until numAttrs).toList).take(2 + rnd.nextInt(math.max(1, numAttrs - 1)))
    }
    val attrsOf = Seq.tabulate(numValues - isolated) { _ =>
      if (rnd.nextDouble() < leafFrac) List(rnd.nextInt(numAttrs)) else sets(rnd.nextInt(numSets))
    }
    csrOf(numValues, Seq.tabulate(numAttrs)(a => attrsOf.indices.filter(v => attrsOf(v).contains(a))))
  }

  /** The disjoint union of two graphs: `b`'s values and attributes follow
    * `a`'s.
    */
  def disjointUnion(a: Csr, b: Csr): Csr = {
    val nv = a.numValues + b.numValues
    def edges(g: Csr, valueBase: Int, attrBase: Int) =
      (0 until g.numValues).iterator.flatMap(v => g.neighborsOf(v).iterator.map(x => (valueBase + v, attrBase + x - g.numValues)))
    Csr.fromEdges(a.numNodes + b.numNodes, nv,
      edges(a, 0, nv) ++ edges(b, a.numValues, nv + a.numAttrs))
  }

  /** Graphs whose values fall into few classes ([[ValueClasses]]): they
    * cover duplicate attribute sets, leaves, attributes of leaves only,
    * isolated values and several components, the cases that exact BC's
    * class and leaf folding and LCC's class factoring treat apart.
    */
  val classHeavyInputs: Seq[(String, Csr)] =
    (1 to 3).map(seed => s"duplicate attribute sets, seed=$seed" -> pooledCsr(30, 6, numSets = 4, leafFrac = 0.0, isolated = 0, seed)) ++
      (1 to 3).map(seed => s"degree-1 values on several attributes, seed=$seed" -> pooledCsr(30, 6, numSets = 6, leafFrac = 0.4, isolated = 0, seed)) ++
      Seq(
        "an attribute holding only leaves" -> csrOf(8, Seq(Seq(0, 1, 2), Seq(3, 4, 5), Seq(4, 5, 6, 7), Seq(7))),
        "isolated values" -> pooledCsr(25, 5, numSets = 3, leafFrac = 0.3, isolated = 4, seed = 4),
        "two components" -> disjointUnion(pooledCsr(20, 4, 3, 0.3, 0, seed = 5), pooledCsr(15, 4, 2, 0.3, 0, seed = 6)),
        "three components, one a star of leaves" ->
          disjointUnion(disjointUnion(pooledCsr(20, 5, 4, 0.5, 2, seed = 7), csrOf(4, Seq(0 until 4))), randomCsr(9, 3, seed = 8)))

  def maxAbsDiff(a: Array[Double], b: Array[Double]): Double =
    a.zip(b).map { case (x, y) => math.abs(x - y) }.max
}
