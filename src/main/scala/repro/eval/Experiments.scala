package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.d4.D4
import repro.data.{SyntheticBenchmark, TusGen}
import repro.lake.DataLake

/** Drivers for the paper's experiments, shared by `jobs/` (spark-submit
  * entrypoints) and `bench/` (sbt benchmark suites). Each function returns
  * plain data; callers format the table rows.
  */
object Experiments {

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
      bcTop: Seq[String],
      lccTop: Seq[String],
      missedByBc: Set[String],
      missedCodeHomographs: Int)

  def runSB(spark: SparkSession, seed: Long = 0L): SbResult = {
    val sb = SyntheticBenchmark.generate(spark, seed)
    val truth = sb.homographs
    val k = truth.size

    val graph = LakeGraph.build(sb.lake)
    val csr = BipartiteGraph.toCsr(graph)
    val names = graph.valueNames

    val bc = Betweenness.exact(spark, csr, normalized = true)
    val bcRanking = DomainNet.rank(bc.take(csr.numValues), ascending = false).map(names).toSeq
    val lcc = Lcc.compute(spark, csr)
    val lccRanking = DomainNet.rank(lcc, ascending = true).map(names).toSeq

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

    val bcTopK = bcRanking.take(k)
    SbResult(
      numValues = graph.numValues,
      numAttrs = graph.numAttrs,
      numEdges = graph.numEdges,
      bcPrf = Metrics.atK(bcRanking, truth, k),
      lccPrf = Metrics.atK(lccRanking, truth, k),
      d4Prf = Metrics.Prf(d4P, d4R, d4F),
      d4NumDomains = d4.numDomains,
      d4CoveredColumns = d4.coveredColumns,
      d4Flagged = d4.homographs.size,
      bcTop = bcTopK,
      lccTop = lccRanking.take(k),
      missedByBc = truth.diff(bcTopK.toSet),
      missedCodeHomographs = truth.diff(bcTopK.toSet).count(sb.smallDomainHomographs.contains))
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
      seed: Long,
      bcSampleFrac: Double = 0.015): Double = {
    val spec = TusGen.tusI(seed, base)
    val inj = TusGen.inject(spec, count, meanings, minAttrCardinality, seed = seed * 1031 + 17)
    val lake = inj.spec.toLake(spark)
    val graph = LakeGraph.build(lake)
    val csr = BipartiteGraph.toCsr(graph)
    val names = graph.valueNames
    val samples = math.max(500, (csr.numNodes * bcSampleFrac).toInt)
    val bc = Betweenness.approximate(spark, csr, samples, seed = seed + 5)
    val top = DomainNet.rank(bc.take(csr.numValues), ascending = false).take(count).map(names).toSet
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
      seeds: Seq[Long],
      bcSampleFrac: Double = 0.01): Double = {
    val runs = seeds.map(s =>
      injectionRun(spark, base, count, meanings, minAttrCardinality, s, bcSampleFrac))
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

  def runTusTopK(
      spark: SparkSession,
      params: TusGen.Params,
      bcSampleFrac: Double = 0.01): TusTopKResult = {
    val spec = TusGen.generate(params)
    val truth = spec.homographs
    val lake = spec.toLake(spark)
    val graph = LakeGraph.build(lake)
    val csr = BipartiteGraph.toCsr(graph)
    val names = graph.valueNames
    val samples = math.max(500, (csr.numNodes * bcSampleFrac).toInt)
    val bc = Betweenness.approximate(spark, csr, samples, seed = params.seed + 3, normalized = true)
    val ranking = DomainNet.rank(bc.take(csr.numValues), ascending = false).map(names).toSeq
    val scoreOf = names.indices.map(i => names(i) -> bc(i)).toMap
    val top10 = ranking.take(10).map(v => v -> scoreOf(v))
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
      numTables: Int,
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
    DatasetStats(name, numTables, numAttrs, numValues, homographs.size,
      cardMin, cardMax, mMin, mMax)
  }
}
