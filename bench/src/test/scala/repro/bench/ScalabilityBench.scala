package repro.bench

import repro.SparkSpec
import repro.core.{Betweenness, LakeGraph}
import repro.data.TusGen
import repro.eval.Experiments

/** Paper §5.4 (Figures 8-9): graph construction is minutes-scale even for
  * the 1.5M-node NYC-EDU lake, and approximate-BC runtime grows linearly
  * with the number of edges (O(s·m) with s = 1% sampled sources).
  *
  * We run the sweep on scaled-down NYC-EDU analogues (DESIGN.md
  * substitution 4); absolute times are not comparable to the paper's
  * laptop/Networkit numbers, but the linear shape is.
  */
class ScalabilityBench extends SparkSpec {

  test("approximate-BC runtime grows ~linearly with graph size; build is fast") {
    println("=== Scalability: approximate BC (1% sources) vs graph size ===")
    println("columns | values | edges | build(s) | bc(s) | bc_s_per_Medge")
    val rows = Seq(800, 1600, 3200).map { nCols =>
      val spec = TusGen.generate(ScalabilityBench.nycParams(seed = 1).copy(nColumns = nCols))
      val lake = spec.toLake(spark)
      val t0 = System.nanoTime()
      val csr = LakeGraph.build(lake).csr
      val buildS = (System.nanoTime() - t0) / 1e9
      val samples = Experiments.bcSources(csr.numNodes)
      val t1 = System.nanoTime()
      Betweenness.approximate(spark, csr, samples, seed = 7)
      val bcS = (System.nanoTime() - t1) / 1e9
      val work = samples.toDouble * csr.numEdges
      println(f"$nCols%7d | ${csr.numValues}%6d | ${csr.numEdges}%7d | $buildS%7.1f | $bcS%5.1f | ${1e6 * bcS / work}%.4f")
      (csr.numEdges.toDouble * samples, bcS)
    }

    // linearity in s*m: per-unit-work time of the largest run within 4x of
    // the smallest run's (generous: small runs are overhead-dominated)
    val perWork = rows.map { case (work, t) => t / work }
    assert(perWork.max / perWork.min < 4.0,
      s"approx BC should scale ~linearly in s*m; per-work times: $perWork")
    // paper: build minutes-scale; ours should be well under that at this scale
    assert(rows.last._2 < 600.0, "largest BC run should finish in minutes")
  }
}

object ScalabilityBench {
  /** NYC-EDU-analogue generator parameters (scaled; see DESIGN.md).
    * Shared tokens give the graph a giant connected component like a real
    * open-data lake (shared codes, years, null markers); without one,
    * BFS-based centrality only ever touches tiny per-domain components and
    * the runtime sweep measures nothing.
    */
  def nycParams(seed: Long): TusGen.Params = TusGen.Params(
    nDomains = 250,
    nColumns = 3200,
    maxVocab = 9000,
    domainSkew = 0.4,
    cardSkew = 1.5,
    nShared = 30000,
    sharedMeaningsMax = 20,
    overlapMax = 2000,
    seed = seed)
}
