package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{collect_list, concat_ws}
import repro.Oracle
import repro.core.{Betweenness, Csr, LakeGraph, Lcc}
import repro.lake.DataLake

/** Output checks, run once per run outside the timed region. Each returns
  * `None` when it passes and a one-line reason when it fails.
  */
object Checks {

  /** The class-factored LCC kernel against the definition, within 1e-12;
    * then `ranked` checks the pipeline's LCC top-k against the definition.
    */
  def lccMatchesBruteForce(spark: SparkSession, csr: Csr, ranked: Array[Double] => Option[String]): Option[String] = {
    val fast = Lcc.compute(spark, csr)
    val ref = Lcc.bruteForce(csr)
    val worst = fast.indices.map(i => math.abs(fast(i) - ref(i))).maxOption.getOrElse(0.0)
    if (fast.length == ref.length && worst <= 1e-12) ranked(ref)
    else Some(f"LCC differs from Lcc.bruteForce by $worst%.3e")
  }

  /** Exact BC summed over all nodes equals the sum over reachable ordered
    * pairs (s != t) of d(s,t) - 1: each pair's unit of dependency is spread
    * over the d - 1 inner nodes of its shortest paths. The right-hand side
    * comes from plain BFS here, so Brandes is not checked against itself.
    * Once the scores pass, `ranked` checks the pipeline's BC top-k against
    * them.
    */
  def bcPathLengthIdentity(spark: SparkSession, csr: Csr, ranked: Array[Double] => Option[String]): Option[String] = {
    val n = csr.numNodes
    val bc = Betweenness.exact(spark, csr, normalized = true)
    val denom = if (n > 2) (n - 1).toDouble * (n - 2).toDouble else 1.0
    val lhs = bc.iterator.map(_ * denom).sum
    val rhs = pathLengthSum(csr).toDouble
    val rel = if (rhs == 0) math.abs(lhs) else math.abs(lhs - rhs) / rhs
    if (rel <= 1e-9) ranked(bc)
    else Some(f"sum of BC $lhs%.6f != sum of (d-1) over pairs $rhs%.0f (rel $rel%.3e)")
  }

  /** Value strings by value id. */
  def valueNames(spark: SparkSession, graph: LakeGraph): Array[String] = {
    import spark.implicits._
    val rows = graph.values.as[(String, Long)].collect()
    val names = new Array[String](rows.length)
    rows.foreach { case (v, id) => names(id.toInt) = v }
    names
  }

  /** The top `k` a pipeline returned against reference scores ranked the way
    * `DomainNet.score` ranks: scores rounded to 1e-9, then by score
    * (ascending or not), ties broken by value id. A position may hold
    * another value than the reference ranking only if the two values'
    * reference scores lie within 1e-9 yet round apart, which absorbs float
    * noise across a rounding boundary. Any other difference fails, a tie
    * broken by another rule too.
    */
  def topKMatches(top: Seq[String], k: Int, reference: Array[Double], ascending: Boolean,
                  names: Array[String]): Option[String] = {
    val rounded = names.indices.map(i => math.rint(reference(i) * 1e9) / 1e9)
    val byScore = if (ascending) Ordering.Double.TotalOrdering else Ordering.Double.TotalOrdering.reverse
    val expected = names.indices.sortBy(i => (rounded(i), i))(Ordering.Tuple2(byScore, Ordering.Int)).take(k)
    val ids = names.zipWithIndex.toMap
    def noise(a: Int, b: Int) = rounded(a) != rounded(b) && math.abs(reference(a) - reference(b)) <= 1e-9
    val bad = top.indices.take(expected.size).find { i =>
      ids.get(top(i)).forall(id => id != expected(i) && !noise(id, expected(i)))
    }
    if (top.size != expected.size) Some(s"${top.size} values, not ${expected.size}")
    else if (top.size != top.distinct.size) Some("top-k repeats a value")
    else bad.map(i => s"position ${i + 1} holds ${top(i)}, the reference ranking ${names(expected(i))}")
  }

  /** Σ over reachable ordered pairs (s != t) of d(s,t) - 1, by BFS from
    * every node, sources spread over the common fork-join pool.
    */
  def pathLengthSum(csr: Csr): Long = {
    val n = csr.numNodes
    val scratch = ThreadLocal.withInitial[(Array[Int], Array[Int])](() => (Array.fill(n)(-1), new Array[Int](n)))
    java.util.stream.IntStream.range(0, n).parallel().mapToLong { s =>
      val (dist, queue) = scratch.get()
      var total = 0L
      var head = 0; var tail = 0
      queue(tail) = s; tail += 1; dist(s) = 0
      while (head < tail) {
        val v = queue(head); head += 1
        if (dist(v) > 1) total += dist(v) - 1
        var i = csr.offsets(v)
        while (i < csr.offsets(v + 1)) {
          val w = csr.neighbors(i)
          if (dist(w) < 0) { dist(w) = dist(v) + 1; queue(tail) = w; tail += 1 }
          i += 1
        }
      }
      var k = 0
      while (k < tail) { dist(queue(k)) = -1; k += 1 }
      total
    }.sum()
  }

  /** CSR value degrees and attribute cardinalities against DuckDB, which
    * recomputes them from the raw lake cells with the paper's rules:
    * trim, upper-case, drop empty, keep values occupying >= 2 cells. To keep
    * the JDBC insert small, raw cells reach DuckDB as one row per raw value
    * holding the attribute of each of its cells; DuckDB unnests them and
    * applies every rule itself.
    */
  def csrMatchesDuckDb(spark: SparkSession, lake: DataLake, graph: LakeGraph, csr: Csr): Option[String] = {
    import spark.implicits._
    val names = new Array[String](csr.numNodes)
    valueNames(spark, graph).copyToArray(names)
    graph.attrs.as[(String, Long)].collect().foreach { case (a, id) => names(id.toInt) = a }
    val fromCsr = (0 until csr.numNodes).map { v =>
      (if (v < csr.numValues) "V" else "A", names(v), csr.degree(v).toLong)
    }.toDF("kind", "name", "n")
    val sql =
      """WITH r AS (SELECT value, unnest(string_split(attrs, chr(1))) AS attribute FROM cells),
        |     c AS (SELECT attribute, upper(trim(value)) AS value FROM r
        |           WHERE value IS NOT NULL AND trim(value) <> ''),
        |     k AS (SELECT value FROM c GROUP BY value HAVING count(*) >= 2),
        |     e AS (SELECT DISTINCT c.value, c.attribute FROM c JOIN k USING (value))
        |SELECT 'V' AS kind, value AS name, count(*) AS n FROM e GROUP BY value
        |UNION ALL
        |SELECT 'A' AS kind, attribute AS name, count(*) AS n FROM e GROUP BY attribute""".stripMargin
    val cells = lake.cells.groupBy("value").agg(concat_ws("\u0001", collect_list("attribute")).as("attrs"))
    try { Oracle.assertEquivalent(fromCsr, sql, "cells" -> cells); None }
    catch { case e: IllegalArgumentException => Some(s"CSR vs DuckDB: ${e.getMessage.linesIterator.next()}") }
  }
}
