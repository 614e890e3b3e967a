package repro.core

import java.util.stream.IntStream
import org.apache.spark.sql.SparkSession

/** Betweenness centrality (Brandes 2001) for the unweighted, undirected
  * DomainNet bipartite graph.
  *
  * The paper's Eq. (2) sums over ordered pairs (v, w); summing Brandes'
  * per-source dependencies over all sources yields exactly that, so no
  * final halving is applied. The optional normalization divides by
  * `(n-1)(n-2)`, the number of ordered pairs excluding the node itself.
  *
  * Sources (exact). Brandes needs one BFS per node; most are redundant:
  *   - all values of one [[ValueClasses]] class are swapped by a graph
  *     automorphism, and none lies on a shortest path from another, so
  *     their dependencies sum to `|C| · δ_rep`: one BFS from the class's
  *     representative, weighted by the class size, stands for the class;
  *   - a value with one attribute `a` (a leaf) sees `a`'s BFS shifted by
  *     one level, so `δ_leaf = δ_a`, plus `reached(a) − 2` at `a` itself
  *     (every target in `a`'s component but `a` and the leaf). Leaves are
  *     folded into their attribute's BFS, weighted `1 + leaves(a)`;
  *   - values with no attribute reach nothing and need no BFS.
  * So exact BC runs one BFS per attribute and one per class with ≥2
  * attributes.
  *
  * Kernel. The graph is bipartite, so no edge joins two nodes of one BFS
  * level. The forward pass is direction-optimizing (Beamer, Asanović &
  * Patterson, SC 2012): a level expands top-down from the frontier, or,
  * when the frontier's adjacency exceeds that of the unvisited nodes on
  * the next side, bottom-up: a scan of the next side's id range, in which
  * every unvisited node sums the path counts of its neighbours, which are
  * 0 off the frontier. The dependency pass pulls: in reverse BFS order
  * `δ(w) = σ(w) · Σ_{x∈N(w)} c(x)` with `c(x) = (1 + δ(x)) / σ(x)`, where
  * `c` is still 0 on the level above `w`, so no distance test is needed.
  * Path counts are integer-valued sums, and each δ sums its own CSR row,
  * so neither a level's direction nor the order of nodes within a level
  * changes a bit of the result.
  *
  * Threads. The graph is a [[Csr]] in the driver's memory, and Brandes
  * runs there, with no Spark job: the BFS sources are split into
  * `4 × cores` contiguous slices, which run on the JVM's `ForkJoinPool`,
  * each into its own dense dependency vector. The vectors are summed in
  * slice order, so the result depends on the slice count only, not on the
  * thread count or on which slice finishes first. The driver holds at most
  * `4 × cores` vectors of `numNodes` doubles, besides the graph.
  *
  * Approximation follows the source-sampling scheme the paper adopts from
  * Geisberger, Sanders & Schultes (ALENEX 2008): run Brandes from `s`
  * uniformly sampled sources and scale dependencies by `n / s`, an unbiased
  * estimator of Eq. (2). Only the ranking is consumed downstream.
  */
object Betweenness {

  /** Exact BC for every node, from one BFS per value class and per
    * attribute, on the driver's threads; `spark` is not used.
    */
  def exact(spark: SparkSession, csr: Csr, normalized: Boolean = false): Array[Double] = {
    val (sources, weights) = exactSources(csr)
    val scores = compute(csr, sources, weights, scale = 1.0, defaultSlices(sources.length))
    if (normalized) normalize(scores) else scores
  }

  /** Approximate BC via `numSamples` uniformly sampled BFS sources
    * (without replacement), scaled by `n / numSamples`, on the driver's
    * threads; `spark` is not used.
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
    val sources = sampledSources(n, numSamples, seed)
    val weights = Array.fill(numSamples)(1)
    val scores = compute(csr, sources, weights, scale = n.toDouble / numSamples, defaultSlices(numSamples))
    if (normalized) normalize(scores) else scores
  }

  /** Exact BC's BFS sources and their weights: the representative of every
    * class with ≥2 attributes (weight: class size), then every attribute
    * (weight: 1 + its number of degree-1 values).
    */
  private[core] def exactSources(csr: Csr): (Array[Int], Array[Int]) = {
    val classes = ValueClasses.of(csr)
    val q = classes.quotient
    val weights = Array.fill(csr.numNodes)(1)
    val multi = scala.collection.mutable.ArrayBuilder.make[Int]
    var c = 0
    while (c < classes.numClasses) {
      if (q.degree(c) >= 2) {
        multi += classes.representative(c)
        weights(classes.representative(c)) = classes.size(c)
      } else if (q.degree(c) == 1) weights(classes.graphId(q.neighbors(q.offsets(c)))) += classes.size(c)
      c += 1
    }
    val sources = multi.result() ++ Array.range(csr.numValues, csr.numNodes)
    (sources, sources.map(weights))
  }

  /** `numSamples` of `n` node ids, drawn without replacement from `seed`. */
  private[core] def sampledSources(n: Int, numSamples: Int, seed: Long): Array[Int] = {
    // Partial Fisher–Yates over an index array.
    val rnd = new scala.util.Random(seed)
    val idx = Array.range(0, n)
    var i = 0
    while (i < numSamples) {
      val j = i + rnd.nextInt(n - i)
      val t = idx(i); idx(i) = idx(j); idx(j) = t
      i += 1
    }
    java.util.Arrays.copyOf(idx, numSamples)
  }

  /** Four slices per core, so a slow slice does not leave cores idle. */
  private def defaultSlices(numSources: Int): Int =
    math.max(1, math.min(numSources, 4 * Runtime.getRuntime.availableProcessors))

  private[core] def normalize(scores: Array[Double]): Array[Double] = {
    val n = scores.length
    val denom = (n - 1).toDouble * (n - 2).toDouble
    if (denom <= 0) scores else scores.map(_ / denom)
  }

  /** Brandes from every source in `sources`, split into `slices` slices:
    * slice `p` runs sources `[p·S/slices, (p+1)·S/slices)`, with
    * `S = sources.length`, into its own dense vector, on the threads of
    * the calling `ForkJoinPool` (the common pool outside one). Source
    * `sources(i)` stands for `weights(i)` sources: its dependencies count
    * `weights(i)` times, and an attribute source also adds its folded
    * leaves' dependencies on itself (`weights(i) − 1` leaves). The sum is
    * scaled by `scale`.
    */
  private[core] def compute(
      csr: Csr,
      sources: Array[Int],
      weights: Array[Int],
      scale: Double,
      slices: Int): Array[Double] = {
    require(sources.length == weights.length, "one weight per source")
    val n = csr.numNodes
    val numSources = sources.length.toLong
    val partial = IntStream.range(0, slices).parallel().mapToObj[Array[Double]] { p =>
      brandesSlice(csr, sources, weights, (p * numSources / slices).toInt, ((p + 1) * numSources / slices).toInt)
    }.toArray[Array[Double]](new Array[Array[Double]](_))
    // Summed in slice order, not completion order, so the bits depend on
    // the slice count only.
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

  /** Brandes from sources `from` until `until`, into one dense vector:
    * single-source shortest-path counting and dependency accumulation from
    * each source `s = sources(i)`, adding `weights(i)` times δ_s(v) for all
    * v ≠ s and, if `s` is an attribute, `(weights(i) − 1) · (reached − 2)`
    * at `s`.
    *
    * The loop over the sources is in this method, not in a caller of a
    * per-source method: a slice's loops run hot from its first call, so
    * the JIT compiles them into the running call (on-stack replacement),
    * while a per-source method reached its optimizing compile only after a
    * few whole BC calls, which then ran several times slower. Each level's
    * expansion and the dependency pass are methods of their own, so that
    * when the source loop's compiled code is discarded, as when a level is
    * first expanded the other way, their compiled loops stay in use.
    */
  private def brandesSlice(g: Csr, sources: Array[Int], weights: Array[Int], from: Int, until: Int): Array[Double] = {
    val st = new BrandesState(g)
    val offsets = g.offsets
    val nv = g.numValues
    var src = from
    while (src < until) {
      val s = sources(src)
      st.start(s)
      // Adjacency of the nodes not yet reached, per side; a level is expanded
      // from whichever of its frontier and the next side's unvisited nodes
      // has fewer edges to scan.
      var valueEdgesLeft = g.numEdges.toLong
      var attrEdgesLeft = g.numEdges.toLong
      var frontierEdges = (offsets(s + 1) - offsets(s)).toLong
      if (s < nv) valueEdgesLeft -= frontierEdges else attrEdgesLeft -= frontierEdges
      var levelStart = 0
      var levelEnd = 1
      var d = 0
      while (levelStart < levelEnd) {
        val nextIsValue = st.order(levelStart) >= nv
        val nextEdges =
          if (frontierEdges <= (if (nextIsValue) valueEdgesLeft else attrEdgesLeft)) st.topDown(levelStart, levelEnd, d)
          else st.bottomUp(nextIsValue, d)
        if (nextIsValue) valueEdgesLeft -= nextEdges else attrEdgesLeft -= nextEdges
        frontierEdges = nextEdges
        levelStart = levelEnd
        levelEnd = st.tail
        d += 1
      }
      st.dependencies(s, weights(src))
      src += 1
    }
    st.acc
  }

  /** One slice's Brandes state. `dist` is -1 and `sigma` and `coeff` are 0
    * on every node between sources; `order(0 until tail)` holds the nodes
    * reached so far, in BFS order.
    */
  private final class BrandesState(g: Csr) {
    val acc = new Array[Double](g.numNodes)
    val dist = new Array[Int](g.numNodes)
    java.util.Arrays.fill(dist, -1)
    val sigma = new Array[Double](g.numNodes)
    val coeff = new Array[Double](g.numNodes) // (1 + δ) / σ of finished nodes
    val order = new Array[Int](g.numNodes)
    var tail = 0
    private val offsets = g.offsets
    private val nbrs = g.neighbors
    private val nv = g.numValues

    def start(s: Int): Unit = {
      order(0) = s
      tail = 1
      dist(s) = 0
      sigma(s) = 1.0
    }

    /** Expands level `d`, `order(levelStart until levelEnd)`, from the
      * frontier; returns the adjacency of the nodes it reached.
      */
    def topDown(levelStart: Int, levelEnd: Int, d: Int): Long = {
      var nextEdges = 0L
      var k = levelStart
      while (k < levelEnd) {
        val v = order(k)
        val sv = sigma(v)
        var i = offsets(v)
        val end = offsets(v + 1)
        while (i < end) {
          val w = nbrs(i)
          if (dist(w) < 0) {
            dist(w) = d + 1
            order(tail) = w; tail += 1
            nextEdges += offsets(w + 1) - offsets(w)
          }
          if (dist(w) == d + 1) sigma(w) += sv
          i += 1
        }
        k += 1
      }
      nextEdges
    }

    /** Expands level `d` by scanning the next side's ids; returns the
      * adjacency of the nodes it reached. An unvisited node's visited
      * neighbours all lie on the frontier, and its unvisited ones have
      * σ = 0, so it sums σ over all neighbours.
      */
    def bottomUp(nextIsValue: Boolean, d: Int): Long = {
      var nextEdges = 0L
      var u = if (nextIsValue) 0 else nv
      val sideEnd = if (nextIsValue) nv else g.numNodes
      while (u < sideEnd) {
        if (dist(u) < 0) {
          var paths = 0.0
          var i = offsets(u)
          val end = offsets(u + 1)
          while (i < end) { paths += sigma(nbrs(i)); i += 1 }
          if (paths > 0) {
            dist(u) = d + 1
            sigma(u) = paths
            order(tail) = u; tail += 1
            nextEdges += end - offsets(u)
          }
        }
        u += 1
      }
      nextEdges
    }

    /** Adds source `s`'s dependencies, `weight` times, into `acc`, and
      * resets the nodes it reached. In reverse BFS order, a neighbour one
      * level down has finished and holds its coefficient; one level up
      * still holds 0.
      */
    def dependencies(s: Int, weight: Int): Unit = {
      val wt = weight.toDouble
      var k = tail - 1
      while (k > 0) { // order(0) == s needs no accumulation into itself
        val w = order(k)
        var sum = 0.0
        var i = offsets(w)
        val end = offsets(w + 1)
        while (i < end) { sum += coeff(nbrs(i)); i += 1 }
        val delta = sigma(w) * sum
        acc(w) += wt * delta
        coeff(w) = (1.0 + delta) / sigma(w)
        k -= 1
      }
      if (s >= nv && weight > 1) acc(s) += (wt - 1.0) * (tail - 2)
      k = 0
      while (k < tail) {
        val v = order(k)
        dist(v) = -1; sigma(v) = 0.0; coeff(v) = 0.0
        k += 1
      }
    }
  }
}
