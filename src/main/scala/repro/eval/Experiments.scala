package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.{DomainNet, LakeGraph}
import repro.d4.D4
import repro.data.{SyntheticBenchmark, TusGen}
import repro.lake.DataLake

/** Drivers for the paper's experiments, run by the `bench/` suites. Each
  * function ranks through [[DomainNet]] and returns plain data; callers
  * format the table rows.
  */
object Experiments {

  /** BFS sources for sampled BC: 1% of the nodes, at least 500. */
  private def bcSources(graph: LakeGraph): Int = math.max(500, graph.numNodes / 100)

  // ------------------------------------------------------------------
  // SB: BC vs LCC vs D4 (paper §5.1, Figures 5-6 and the 69% / 38% claim)
  // ------------------------------------------------------------------

  final case class SbResult(
      numValues: Long,
      numAttrs: Long,
      numEdges: Long,
      bcPrf: Metrics.Prf,
      lccPrf: Metrics.Prf,
      d4Prf: Metrics.Prf,
      d4NumDomains: Int,
      d4CoveredColumns: Long,
      d4Flagged: Int,
      missedByBc: Set[String],
      missedCodeHomographs: Int)

  def runSB(spark: SparkSession, seed: Long = 0L): SbResult = {
    val sb = SyntheticBenchmark.generate(spark, seed)
    val truth = sb.homographs
    val k = truth.size

    val graph = LakeGraph.build(sb.lake)
    val bcTop = DomainNet.score(spark, graph, graph.csr, DomainNet.ExactBC).topK(k)
    val lccTop = DomainNet.score(spark, graph, graph.csr, DomainNet.LCC).topK(k)

    // tau/dominance chosen to mirror the original D4's reported coverage on
    // SB (domains on 14 of 39 columns; homographs often absorbed into the
    // dominant meaning) — see DESIGN.md substitution 5.
    val d4 = D4.run(spark, sb.lake, D4.Config(tau = 0.35, dominance = 0.35))
    // D4 flags a set (not a ranking); following the paper we score its
    // flagged set against the k=|truth| operating point.
    val d4Hits = d4.homographs.count(truth.contains)
    val d4P = if (d4.homographs.isEmpty) 0.0 else d4Hits.toDouble / d4.homographs.size
    val d4R = d4Hits.toDouble / k
    val d4F = if (d4P + d4R == 0) 0.0 else 2 * d4P * d4R / (d4P + d4R)

    val missed = truth.diff(bcTop.toSet)
    SbResult(
      numValues = graph.numValues,
      numAttrs = graph.numAttrs,
      numEdges = graph.numEdges,
      bcPrf = Metrics.atK(bcTop, truth, k),
      lccPrf = Metrics.atK(lccTop, truth, k),
      d4Prf = Metrics.Prf(d4P, d4R, d4F),
      d4NumDomains = d4.numDomains,
      d4CoveredColumns = d4.coveredColumns,
      d4Flagged = d4.homographs.size,
      missedByBc = missed,
      missedCodeHomographs = missed.count(sb.smallDomainHomographs.contains))
  }

  // ------------------------------------------------------------------
  // TUS-I injection experiments (paper §5.2, Tables 2 and 3)
  // ------------------------------------------------------------------

  /** One injection run: % of the injected homographs ranked in the top
    * `count` by approximate BC.
    */
  def injectionRun(
      spark: SparkSession,
      base: TusGen.Params,
      count: Int,
      meanings: Int,
      minAttrCardinality: Int,
      seed: Long): Double = {
    val spec = TusGen.tusI(seed, base)
    val inj = TusGen.inject(spec, count, meanings, minAttrCardinality, seed = seed * 1031 + 17)
    val graph = LakeGraph.build(inj.spec.toLake(spark))
    val bc = DomainNet.score(spark, graph, graph.csr, DomainNet.ApproxBC(bcSources(graph), seed = seed + 5))
    val top = bc.topK(count).toSet
    val found = inj.injected.count(top.contains)
    100.0 * found / inj.injected.size
  }

  /** Average over seeds of [[injectionRun]] — one cell of Table 2/3. */
  def injectionCell(
      spark: SparkSession,
      base: TusGen.Params,
      count: Int,
      meanings: Int,
      minAttrCardinality: Int,
      seeds: Seq[Long]): Double = {
    val runs = seeds.map(s => injectionRun(spark, base, count, meanings, minAttrCardinality, s))
    runs.sum / runs.size
  }

  // ------------------------------------------------------------------
  // TUS top-k sweep (paper §5.3, Figure 7 + headline numbers)
  // ------------------------------------------------------------------

  final case class TusTopKResult(
      numValues: Long,
      numEdges: Long,
      numHomographs: Int,
      p200: Double,
      atTruth: Metrics.Prf,
      bestK: Int,
      best: Metrics.Prf,
      top10: Seq[(String, Double)],
      top10AllHomographs: Boolean)

  def runTusTopK(spark: SparkSession, params: TusGen.Params): TusTopKResult = {
    val spec = TusGen.generate(params)
    val truth = spec.homographs
    val graph = LakeGraph.build(spec.toLake(spark))
    val bc = DomainNet.score(spark, graph, graph.csr, DomainNet.ApproxBC(bcSources(graph), seed = params.seed + 3))
    val ranking = bc.topK(graph.numValues)
    val top10 = bc.order.take(10).toSeq.map(i => graph.valueNames(i) -> bc.score(i))
    val (bestK, best) = Metrics.bestF1(ranking, truth)
    TusTopKResult(
      numValues = graph.numValues,
      numEdges = graph.numEdges,
      numHomographs = truth.size,
      p200 = Metrics.atK(ranking, truth, 200).precision,
      atTruth = Metrics.atTruthSize(ranking, truth),
      bestK = bestK,
      best = best,
      top10 = top10,
      top10AllHomographs = ranking.take(10).forall(truth.contains))
  }

  // ------------------------------------------------------------------
  // Table 1: dataset statistics
  // ------------------------------------------------------------------

  final case class DatasetStats(
      name: String,
      numTables: Int,
      numAttrs: Long,
      numValues: Long,
      numHomographs: Long,
      cardMin: Long,
      cardMax: Long,
      meaningsMin: Int,
      meaningsMax: Int)

  /** Statistics of a generated lake; cardinality range Card(H) = |N(v)| is
    * computed for the homographs only (as in the paper's footnote 3).
    * Pass `cardRange` to supply a precomputed range (e.g. from
    * `TusGen.LakeSpec.cardinalities`) instead of the Spark self-join,
    * which is quadratic in column cardinality.
    */
  def datasetStats(
      spark: SparkSession,
      name: String,
      lake: DataLake,
      homographs: Set[String],
      meanings: Map[String, Int],
      cardRange: Option[(Long, Long)] = None): DatasetStats = {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val cells = LakeGraph.normalizedCells(lake)
    val edges = cells.distinct().cache()
    val numAttrs = edges.select("attribute").distinct().count()
    val numValues = edges.select("value").distinct().count()
    val (cardMin, cardMax) =
      if (homographs.isEmpty) (0L, 0L)
      else if (cardRange.isDefined) cardRange.get
      else {
        val homDf = homographs.toSeq.toDF("value")
        val homAttrs = edges.join(homDf, "value").toDF("hom", "attribute")
        val co = homAttrs.join(edges, "attribute")
          .filter(col("hom") =!= col("value"))
          .groupBy("hom")
          .agg(countDistinct("value").as("card"))
        val row = co.agg(min("card"), max("card")).collect()(0)
        (row.getLong(0), row.getLong(1))
      }
    edges.unpersist()
    val (mMin, mMax) =
      if (meanings.isEmpty) (0, 0) else (meanings.values.min, meanings.values.max)
    DatasetStats(name, lake.numTables, numAttrs, numValues, homographs.size,
      cardMin, cardMax, mMin, mMax)
  }
}
