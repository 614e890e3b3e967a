package repro.d4

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.LakeGraph
import repro.lake.DataLake

/** Baseline: unsupervised domain discovery in the spirit of D4 (Ota,
  * Mueller, Freire, Srivastava — "Data-driven domain discovery for
  * structured datasets", VLDB 2020), as used by the paper (§5) to detect
  * homographs: discover domains, then flag any value assigned to more than
  * one domain.
  *
  * This is a behaviour-level re-implementation, not a port (DESIGN.md
  * substitution 5). It preserves the two failure modes the paper attributes
  * to D4:
  *
  *   1. *Partial coverage* — domains are clusters of at least
  *      `minDomainCols` columns whose value sets overlap strongly
  *      (Jaccard >= `tau`); a column without a sufficiently similar peer is
  *      assigned no domain, so homographs occurring there are invisible
  *      (the paper: D4 mapped domains onto only 14 of SB's 39 columns).
  *   2. *Dominant-meaning absorption* — a value supported much more
  *      strongly by one domain is assigned only to that domain
  *      (support < `dominance` x the max support is pruned), so unbalanced
  *      homographs are missed (the paper: "D4 at times placing homographs
  *      into a domain represented by their most popular meaning").
  *
  * Pipeline: DataFrame relational stages for cells, column overlaps and
  * supports; the similar column pairs and the supports are collected, and
  * column clustering (union-find over at most a few thousand columns) and
  * dominant-meaning pruning run on the driver.
  */
object D4 {

  /** @param tau         minimum column-pair Jaccard to link two columns
    * @param dominance   keep a value's domain only if its support is at
    *                    least `dominance` times its best domain's support
    * @param minDomainCols minimum columns for a cluster to count as a domain
    */
  final case class Config(tau: Double = 0.4, dominance: Double = 0.6, minDomainCols: Int = 2)

  /** @param columnDomains   domain id of every column that received one;
    *                        a domain is labelled by the smallest id of its
    *                        columns in Spark's string order
    * @param domainsPerValue number of domains of every value assigned one,
    *                        after dominant-meaning pruning
    */
  final case class Result(columnDomains: Map[String, Long], domainsPerValue: Map[String, Int]) {

    /** Number of discovered domains. */
    def numDomains: Int = columnDomains.values.toSet.size

    /** Number of columns that received a domain. */
    def coveredColumns: Long = columnDomains.size.toLong

    /** Values assigned to >= 2 domains. */
    lazy val homographs: Set[String] = domainsPerValue.collect { case (v, n) if n >= 2 => v }.toSet

    /** Values assigned to more than one domain. */
    def multiDomainValueCount: Long = homographs.size.toLong

    /** Average number of domains per assigned value (paper §5.5 reports the
      * analogous per-column statistic for D4).
      */
    def avgDomainsPerValue: Double =
      if (domainsPerValue.isEmpty) 0.0 else domainsPerValue.values.sum.toDouble / domainsPerValue.size
  }

  def run(spark: SparkSession, lake: DataLake, config: Config = Config()): Result = {
    import spark.implicits._
    // Distinct (value, attribute) with occurrence counts (support weights).
    val occ = LakeGraph.normalizedCells(lake)
      .groupBy("value", "attribute").agg(count(lit(1)).as("occ")).cache()
    try {
      val edges = occ.select("value", "attribute")
      val cards = edges.groupBy("attribute").agg(count(lit(1)).as("card")).as[(String, Long)].collect()

      // Column-pair overlap and Jaccard similarity.
      val e1 = edges.toDF("value", "a1")
      val e2 = edges.toDF("value", "a2")
      val overlaps = e1.join(e2, "value")
        .filter(col("a1") < col("a2"))
        .groupBy("a1", "a2")
        .agg(count(lit(1)).as("overlap"))
      val c1 = cards.toSeq.toDF("a1", "card1")
      val c2 = cards.toSeq.toDF("a2", "card2")
      val simPairs = overlaps.join(c1, "a1").join(c2, "a2")
        .withColumn("jaccard",
          col("overlap") / (col("card1") + col("card2") - col("overlap")))
        .filter(col("jaccard") >= config.tau)
        .select("a1", "a2")
        .as[(String, String)]
        .collect()

      // Column clustering: connected components over the similar pairs.
      val columns = cards.map(_._1).sorted(LakeGraph.Utf8Order)
      val columnDomains = clusterColumns(columns, simPairs, config.minDomainCols)

      // Value support per domain (total occurrences in the domain's columns),
      // then dominant-meaning pruning.
      val support = occ.join(columnDomains.toSeq.toDF("attribute", "domainId"), "attribute")
        .groupBy("value", "domainId")
        .agg(sum("occ").as("support"))
        .select("value", "support")
        .as[(String, Long)]
        .collect()
      val domainsPerValue = support.groupMap(_._1)(_._2).map { case (v, s) =>
        val best = s.max
        v -> s.count(_ >= config.dominance * best)
      }
      Result(columnDomains, domainsPerValue)
    } finally occ.unpersist()
  }

  /** Connected components of the column-similarity graph, by union-find.
    * Returns the domain id of every column in a component of at least
    * `minDomainCols` columns; a component is labelled by its smallest
    * column index in `columns`.
    */
  private[d4] def clusterColumns(
      columns: Array[String],
      similar: Array[(String, String)],
      minDomainCols: Int): Map[String, Long] = {
    val index = columns.zipWithIndex.toMap
    val parent = Array.range(0, columns.length)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    // Linking the larger root under the smaller keeps every root the
    // smallest index of its component.
    similar.foreach { case (a, b) =>
      val ra = find(index(a)); val rb = find(index(b))
      if (ra < rb) parent(rb) = ra else if (rb < ra) parent(ra) = rb
    }
    val root = columns.indices.map(find)
    val size = root.groupMapReduce(identity)(_ => 1)(_ + _)
    columns.indices.collect { case i if size(root(i)) >= minDomainCols => columns(i) -> root(i).toLong }.toMap
  }
}
