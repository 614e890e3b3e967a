package repro.core

import org.apache.spark.sql.SparkSession
import repro.lake.DataLake

/** End-to-end DomainNet pipeline (paper §3.4):
  *
  *   1. construct the bipartite graph from the lake ([[LakeGraph]]);
  *   2. compute a centrality measure per value node ([[Betweenness]] /
  *      [[Lcc]]);
  *   3. rank value nodes (descending BC, ascending LCC) — the top of the
  *      ranking are the homograph candidates shown to the user.
  */
object DomainNet {

  /** Which centrality measure scores the value nodes. */
  sealed trait Measure
  /** Exact betweenness centrality. */
  case object ExactBC extends Measure
  /** Sampled betweenness centrality (`numSamples` BFS sources). */
  final case class ApproxBC(numSamples: Int, seed: Long = 7L) extends Measure
  /** Bipartite local clustering coefficient. */
  case object LCC extends Measure

  /** A scored lake.
    *
    * @param score per-value score by value id, rounded to 1e-9
    * @param order value ids, strongest homograph candidate first
    */
  final case class Result(graph: LakeGraph, score: Array[Double], order: Array[Int]) {

    /** Top-k candidate value strings, strongest first. */
    def topK(k: Int): Seq[String] = order.iterator.take(k).map(graph.valueNames(_)).toSeq
  }

  /** Build the graph and score every value node with `measure`. */
  def run(spark: SparkSession, lake: DataLake, measure: Measure): Result = {
    val graph = LakeGraph.build(lake)
    score(spark, graph, BipartiteGraph.toCsr(graph), measure)
  }

  /** Score a pre-built graph (lets callers reuse one graph for several
    * measures, as the benches do). `csr` is the graph's adjacency,
    * [[BipartiteGraph.toCsr]].
    */
  def score(spark: SparkSession, graph: LakeGraph, csr: Csr, measure: Measure): Result = {
    val (rawScores, ascending) = measure match {
      case ExactBC            => (Betweenness.exact(spark, csr, normalized = true), false)
      case ApproxBC(s, seed)  => (Betweenness.approximate(spark, csr, s, seed, normalized = true), false)
      case LCC                => (Lcc.compute(spark, csr), true)
    }
    // BC sums per-source dependencies in partition order, so one run is
    // reproducible, but the partitioning follows the default parallelism
    // and a different split rounds differently. Round that float noise away
    // (all scores here are normalized to [0, 1]) so that genuinely tied
    // nodes always fall back to the valueId tie-break.
    val score = Array.tabulate(csr.numValues)(i => math.rint(rawScores(i) * 1e9) / 1e9)
    Result(graph, score, rank(score, ascending))
  }

  /** Value ids by score, ascending or descending, ties broken by ascending
    * value id.
    */
  def rank(score: Array[Double], ascending: Boolean): Array[Int] = {
    val byScore = if (ascending) Ordering.Double.TotalOrdering else Ordering.Double.TotalOrdering.reverse
    // a stable sort of ids already in ascending order keeps ties by id
    Array.range(0, score.length).sortBy(score(_))(byScore)
  }
}
