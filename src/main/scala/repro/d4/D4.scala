package repro.d4

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.CellCounts
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
  *   1. *Partial coverage* — domains are clusters of at least two
  *      columns whose value sets overlap strongly (Jaccard >= `tau`); a
  *      column without a sufficiently similar peer is assigned no
  *      domain, so homographs occurring there are invisible
  *      (the paper: D4 mapped domains onto only 14 of SB's 39 columns).
  *   2. *Dominant-meaning absorption* — a value supported much more
  *      strongly by one domain is assigned only to that domain
  *      (support < `dominance` x the max support is pruned), so unbalanced
  *      homographs are missed (the paper: "D4 at times placing homographs
  *      into a domain represented by their most popular meaning").
  *
  * Pipeline: the lake's [[CellCounts]] (one map-only Spark stage counting
  * each partition's (value, attribute) pairs of the normalized cells, summed
  * on the driver) feed the driver part, [[discover]]: column cardinalities
  * and overlaps, the Jaccard threshold, column clustering (union-find over
  * at most a few thousand columns), per-domain supports and dominant-meaning
  * pruning, all over the counts' ids. The driver therefore holds what
  * [[CellCounts.of]] collects, as `repro.core.LakeGraph.build` does: each
  * partition's names as UTF-8 bytes, and int pairs and counts, at most
  * min(cells, partitions × distinct pairs), singletons included.
  */
object D4 {

  /** @param tau         minimum column-pair Jaccard to link two columns
    * @param dominance   keep a value's domain only if its support is at
    *                    least `dominance` times its best domain's support
    */
  final case class Config(tau: Double = 0.4, dominance: Double = 0.6)

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

    /** Average number of domains per assigned value (paper §5.5 reports the
      * analogous per-column statistic for D4).
      */
    def avgDomainsPerValue: Double =
      if (domainsPerValue.isEmpty) 0.0 else domainsPerValue.values.sum.toDouble / domainsPerValue.size
  }

  /** D4 over the lake: one cell count ([[repro.core.CellCounts.of]], on the
    * lake's own session), then [[discover]] on the driver; `spark` is not
    * used.
    */
  def run(spark: SparkSession, lake: DataLake, config: Config = Config()): Result =
    discover(CellCounts.of(lake), config)

  /** The driver part of [[run]], over the lake's cell counts. */
  def discover(counts: CellCounts, config: Config = Config()): Result = {
    val columnDomain = clusterColumns(counts.numAttrs, similarPairs(counts, config.tau), minDomainCols = 2)
    // Dominant-meaning pruning of each value's domains.
    val domainsPerValue = supports(counts, columnDomain).groupMap(_._1)(_._3).map { case (v, s) =>
      val best = s.max
      counts.valueNames(v) -> s.count(_ >= config.dominance * best)
    }
    val columnDomains = columnDomain.indices.collect {
      case c if columnDomain(c) >= 0 => counts.attrNames(c) -> columnDomain(c).toLong
    }.toMap
    Result(columnDomains, domainsPerValue)
  }

  /** Column pairs `(a, b)`, by attribute id with `a < b`, whose value sets
    * have Jaccard similarity at least `tau`. A column's value set is the
    * values it has a pair with in `counts`.
    */
  private[d4] def similarPairs(counts: CellCounts, tau: Double): Array[(Int, Int)] = {
    val nc = counts.numAttrs
    val card = new Array[Long](nc)
    counts.attrIds.foreach(a => card(a) += 1)
    // Overlap of columns a < b, keyed a * nc + b. A value's attribute ids
    // are ascending.
    val overlap = mutable.LongMap.empty[Long]
    counts.foreachValue { (_, from, until) =>
      var i = from
      while (i < until) {
        var j = i + 1
        while (j < until) {
          val key = counts.attrIds(i).toLong * nc + counts.attrIds(j)
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
      if (jaccard >= tau) Some(a -> b) else None
    }.toArray
  }

  /** Support of each value in each domain: its total occurrences in the
    * domain's columns, as `(valueId, domainId, support)`. `columnDomain`
    * holds every column's domain id, or -1; columns without a domain
    * contribute nothing.
    */
  private[d4] def supports(counts: CellCounts, columnDomain: Array[Int]): Array[(Int, Int, Long)] = {
    val out = Array.newBuilder[(Int, Int, Long)]
    counts.foreachValue { (v, from, until) =>
      (from until until).filter(i => columnDomain(counts.attrIds(i)) >= 0)
        .groupMapReduce(i => columnDomain(counts.attrIds(i)))(counts.occurrences(_))(_ + _)
        .foreach { case (d, support) => out += ((v, d, support)) }
    }
    out.result()
  }

  /** Connected components of the column-similarity graph over columns
    * `[0, numColumns)`, by union-find. Returns every column's domain id:
    * the smallest column of its component if the component has at least
    * `minDomainCols` columns, -1 otherwise.
    */
  private[d4] def clusterColumns(numColumns: Int, similar: Array[(Int, Int)], minDomainCols: Int): Array[Int] = {
    val parent = Array.range(0, numColumns)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    // Linking the larger root under the smaller keeps every root the
    // smallest index of its component.
    similar.foreach { case (a, b) =>
      val ra = find(a); val rb = find(b)
      if (ra < rb) parent(rb) = ra else if (rb < ra) parent(ra) = rb
    }
    val root = Array.tabulate(numColumns)(find)
    val size = new Array[Int](numColumns)
    root.foreach(r => size(r) += 1)
    root.map(r => if (size(r) >= minDomainCols) r else -1)
  }
}
