package repro.d4

import scala.collection.mutable
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
  * Pipeline: one Spark aggregation counts the occurrences of every
  * distinct (value, attribute) pair of the normalized cells and is
  * collected; column cardinalities and overlaps, the Jaccard threshold,
  * column clustering (union-find over at most a few thousand columns),
  * per-domain supports and dominant-meaning pruning run on the driver.
  * The driver therefore holds O(distinct (value, attribute) pairs)
  * strings; unlike [[LakeGraph.build]] this count includes values that
  * occur only once. `spark.driver.maxResultSize` bounds the collect.
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
    val rows = LakeGraph.normalizedCells(lake)
      .groupBy("value", "attribute").agg(count(lit(1)).as("occ"))
      .as[(String, String, Long)]
      .collect()
    discover(rows, config)
  }

  /** The driver part of [[run]], over its collected distinct
    * `(value, attribute, occurrences)` rows.
    */
  private[d4] def discover(rows: Array[(String, String, Long)], config: Config): Result = {
    val columns = rows.iterator.map(_._2).toArray.distinct.sorted(LakeGraph.Utf8Order)
    val columnDomains = clusterColumns(columns, similarPairs(rows, columns, config.tau), config.minDomainCols)
    // Dominant-meaning pruning of each value's domains.
    val domainsPerValue = supports(rows, columnDomains).groupMap(_._1._1)(_._2).map { case (v, s) =>
      val best = s.max
      v -> s.count(_ >= config.dominance * best)
    }
    Result(columnDomains, domainsPerValue)
  }

  /** Column pairs `(a, b)`, `a` before `b` in `columns`, whose value sets
    * have Jaccard similarity at least `tau`. A column's value set is its
    * distinct values in `rows`; `columns` lists every column of `rows`.
    */
  private[d4] def similarPairs(
      rows: Array[(String, String, Long)],
      columns: Array[String],
      tau: Double): Array[(String, String)] = {
    val nc = columns.length
    val index = columns.zipWithIndex.toMap
    val card = new Array[Long](nc)
    val columnsOf = mutable.HashMap.empty[String, mutable.ArrayBuilder.ofInt]
    rows.foreach { case (v, a, _) =>
      val c = index(a)
      card(c) += 1
      columnsOf.getOrElseUpdate(v, new mutable.ArrayBuilder.ofInt) += c
    }
    // Overlap of columns a < b, keyed a * nc + b.
    val overlap = mutable.LongMap.empty[Long]
    columnsOf.valuesIterator.foreach { b =>
      val cs = b.result()
      java.util.Arrays.sort(cs)
      var i = 0
      while (i < cs.length) {
        var j = i + 1
        while (j < cs.length) {
          val key = cs(i).toLong * nc + cs(j)
          overlap(key) = overlap.getOrElse(key, 0L) + 1
          j += 1
        }
        i += 1
      }
    }
    overlap.iterator.flatMap { case (key, o) =>
      val a = (key / nc).toInt
      val b = (key % nc).toInt
      val jaccard = o.toDouble / (card(a) + card(b) - o).toDouble
      if (jaccard >= tau) Some(columns(a) -> columns(b)) else None
    }.toArray
  }

  /** Support of each value in each domain: its total occurrences in the
    * domain's columns, keyed `(value, domainId)`. Columns without a domain
    * contribute nothing.
    */
  private[d4] def supports(
      rows: Array[(String, String, Long)],
      columnDomains: Map[String, Long]): Map[(String, Long), Long] = {
    val support = mutable.HashMap.empty[(String, Long), Long]
    rows.foreach { case (v, a, occ) =>
      columnDomains.get(a).foreach(d => support((v, d)) = support.getOrElse((v, d), 0L) + occ)
    }
    support.toMap
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
