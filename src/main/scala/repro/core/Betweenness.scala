package repro.core

import org.apache.spark.sql.SparkSession

/** Betweenness centrality (Brandes 2001) for the unweighted, undirected
  * DomainNet bipartite graph.
  *
  * The paper's Eq. (2) sums over ordered pairs (v, w); summing Brandes'
  * per-source dependencies over all sources yields exactly that, so no
  * final halving is applied. The optional normalization divides by
  * `(n-1)(n-2)`, the number of ordered pairs excluding the node itself.
  *
  * Distribution strategy (per the reproduction's distributed-dataflow
  * design): the graph topology is broadcast as a [[Csr]]; BFS sources are
  * distributed over Spark partitions; each task accumulates a dense
  * per-partition dependency vector. The driver collects the vectors and
  * sums them in partition order, so it briefly holds one `numNodes` vector
  * per partition (at most 4 × the default parallelism). This is the
  * standard way to scale Brandes when the topology fits in memory but the
  * O(n·m) work does not fit on one core.
  *
  * Approximation follows the source-sampling scheme the paper adopts from
  * Geisberger, Sanders & Schultes (ALENEX 2008): run Brandes from `s`
  * uniformly sampled sources and scale dependencies by `n / s`, an unbiased
  * estimator of Eq. (2). Only the ranking is consumed downstream.
  */
object Betweenness {

  /** Exact BC for every node. O(n·m) work split across the cluster. */
  def exact(spark: SparkSession, csr: Csr, normalized: Boolean = false): Array[Double] = {
    val n = csr.numNodes
    val scores = compute(spark, csr, (0 until n).toArray, scale = 1.0, defaultSlices(spark, n))
    if (normalized) normalize(scores) else scores
  }

  /** Approximate BC via `numSamples` uniformly sampled BFS sources
    * (without replacement), scaled by `n / numSamples`.
    */
  def approximate(
      spark: SparkSession,
      csr: Csr,
      numSamples: Int,
      seed: Long,
      normalized: Boolean = false): Array[Double] = {
    val n = csr.numNodes
    require(numSamples > 0, "numSamples must be positive")
    if (numSamples >= n) return exact(spark, csr, normalized)
    val rnd = new scala.util.Random(seed)
    val sources = sampleWithoutReplacement(n, numSamples, rnd)
    val scores = compute(spark, csr, sources, scale = n.toDouble / numSamples, defaultSlices(spark, numSamples))
    if (normalized) normalize(scores) else scores
  }

  private def defaultSlices(spark: SparkSession, numSources: Int): Int =
    math.max(1, math.min(numSources, spark.sparkContext.defaultParallelism * 4))

  private def normalize(scores: Array[Double]): Array[Double] = {
    val n = scores.length
    val denom = (n - 1).toDouble * (n - 2).toDouble
    if (denom <= 0) scores else scores.map(_ / denom)
  }

  private def sampleWithoutReplacement(n: Int, k: Int, rnd: scala.util.Random): Array[Int] = {
    // Partial Fisher–Yates over an index array.
    val idx = Array.range(0, n)
    var i = 0
    while (i < k) {
      val j = i + rnd.nextInt(n - i)
      val t = idx(i); idx(i) = idx(j); idx(j) = t
      i += 1
    }
    java.util.Arrays.copyOf(idx, k)
  }

  /** Brandes from every source in `sources`, split into `slices` Spark
    * partitions, each dependency scaled by `scale`.
    */
  private[core] def compute(
      spark: SparkSession,
      csr: Csr,
      sources: Array[Int],
      scale: Double,
      slices: Int): Array[Double] = {
    val n = csr.numNodes
    val sc = spark.sparkContext
    val bc = sc.broadcast(csr)
    val partial = sc
      .parallelize(sources.toIndexedSeq, slices)
      .mapPartitions { srcIt =>
        val g = bc.value
        val acc = new Array[Double](g.numNodes)
        val state = new BrandesState(g.numNodes)
        srcIt.foreach(s => brandesFrom(g, s, state, acc))
        Iterator.single(acc)
      }
      .collect()
    bc.destroy()
    // Summed in partition order, not task-completion order, so a run is
    // reproducible bit for bit.
    val summed = new Array[Double](n)
    partial.foreach { acc =>
      var i = 0
      while (i < n) { summed(i) += acc(i); i += 1 }
    }
    if (scale != 1.0) {
      var i = 0
      while (i < n) { summed(i) *= scale; i += 1 }
    }
    summed
  }

  /** Reusable per-task scratch space for Brandes' algorithm. */
  private final class BrandesState(n: Int) {
    val dist = new Array[Int](n)
    val sigma = new Array[Double](n)
    val delta = new Array[Double](n)
    val order = new Array[Int](n) // nodes in BFS visitation order
    java.util.Arrays.fill(dist, -1)
  }

  /** Single-source shortest-path counting + dependency accumulation.
    * Adds the per-source dependencies δ_s(v) into `acc` for all v ≠ s.
    * `state.dist` must be -1-filled on entry and is restored on exit.
    */
  private def brandesFrom(g: Csr, s: Int, state: BrandesState, acc: Array[Double]): Unit = {
    import state._
    var head = 0
    var tail = 0
    order(tail) = s; tail += 1
    dist(s) = 0
    sigma(s) = 1.0
    while (head < tail) {
      val v = order(head); head += 1
      val dv = dist(v)
      val sv = sigma(v)
      var i = g.offsets(v)
      val end = g.offsets(v + 1)
      while (i < end) {
        val w = g.neighbors(i)
        if (dist(w) < 0) {
          dist(w) = dv + 1
          order(tail) = w; tail += 1
        }
        if (dist(w) == dv + 1) sigma(w) += sv
        i += 1
      }
    }
    // Backward accumulation in reverse BFS order; predecessors are
    // re-derived from distances to avoid storing predecessor lists.
    var k = tail - 1
    while (k > 0) { // order(0) == s needs no accumulation into itself
      val w = order(k)
      val coeff = (1.0 + delta(w)) / sigma(w)
      val dw = dist(w)
      var i = g.offsets(w)
      val end = g.offsets(w + 1)
      while (i < end) {
        val v = g.neighbors(i)
        if (dist(v) == dw - 1) delta(v) += sigma(v) * coeff
        i += 1
      }
      acc(w) += delta(w)
      k -= 1
    }
    // Reset touched state for the next source.
    k = 0
    while (k < tail) {
      val v = order(k)
      dist(v) = -1; sigma(v) = 0.0; delta(v) = 0.0
      k += 1
    }
  }
}
