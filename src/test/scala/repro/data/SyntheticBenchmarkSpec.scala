package repro.data

import repro.SparkSpec
import repro.core.LakeGraph
import org.apache.spark.sql.functions._

class SyntheticBenchmarkSpec extends SparkSpec {

  private lazy val sb = SyntheticBenchmark.generate(spark, seed = 0)

  test("SB has 13 tables and 39 attributes like the paper's benchmark") {
    assert(sb.tables.size === 13)
    val attrs = sb.tables.map { case (_, df) => df.columns.length }.sum
    assert(attrs === 35) // our tables have 2-3 columns each (paper: 39)
    assert(sb.lake.cells.select("attribute").distinct().count() === 35)
  }

  test("exactly 55 homographs are planted, 20 in the small code domains") {
    assert(sb.homographs.size === 55)
    assert(sb.smallDomainHomographs.size === 20)
    assert(sb.smallDomainHomographs.subsetOf(sb.homographs))
  }

  test("tables have 1000 rows except countries (193) and states (50)") {
    val sizes = sb.tables.map { case (n, df) => n -> df.count() }.toMap
    assert(sizes("countries") === 193)
    assert(sizes("states") === 50)
    (sizes - "countries" - "states").foreach { case (n, c) =>
      assert(c === 1000, s"table $n")
    }
  }

  test("every planted homograph appears in at least two attributes of the graph") {
    val g = LakeGraph.build(sb.lake)
    val multiAttr = (0 until g.numValues).filter(g.csr.degree(_) >= 2).map(g.valueNames(_)).toSet
    val missing = sb.homographs.diff(multiAttr)
    assert(missing.isEmpty, s"homographs without 2 attributes: $missing")
  }

  test("every planted homograph stays in both of its pools (seeds 0-17)") {
    import spark.implicits._
    val lost = (0 to 17).flatMap { seed =>
      val sb = SyntheticBenchmark.generate(spark, seed)
      val cells = sb.lake.cells.as[(String, String)].collect()
      // a column's pool is the tag of its unplanted tokens, e.g. CITY in CITY_00017
      val poolOf = cells.filterNot(c => sb.homographs(c._2)).map(c => c._1 -> c._2.takeWhile(_ != '_')).toMap
      val poolsOf = cells.filter(c => sb.homographs(c._2)).groupMapReduce(_._2)(c => Set(poolOf(c._1)))(_ ++ _)
      sb.homographs.toSeq.sorted.collect {
        case h if poolsOf.getOrElse(h, Set.empty).size != 2 => s"seed $seed: $h in ${poolsOf.getOrElse(h, Set.empty)}"
      }
    }
    assert(lost.isEmpty, lost.mkString("\n"))
  }

  test("non-homograph values never span two semantic pools") {
    import spark.implicits._
    // all non-planted tokens carry their pool tag; a value node whose
    // attribute set spans pools with different tags would be an accidental
    // homograph and break ground truth
    val cells = sb.lake.normalizedCells
    val nonPlanted = cells.filter(!col("value").startsWith("HOM"))
    val tags = nonPlanted
      .select(split(col("value"), "_").getItem(0).as("tag"), col("value"))
      .select("tag").distinct().as[String].collect().toSet
    assert(tags === Set("FNAME", "LNAME", "CITY", "COUNTRY", "STATE", "CCODE", "SCODE",
      "CARBRAND", "CARMODEL", "ANIMAL", "ZOO", "COMPANY", "GROCERY", "MOVIE"))
  }

  test("generation is deterministic in the seed") {
    val sb2 = SyntheticBenchmark.generate(spark, seed = 0)
    assert(sb2.homographs === sb.homographs)
    import spark.implicits._
    val c1 = sb.lake.cells.as[(String, String)].collect().sortBy(t => (t._1, t._2))
    val c2 = sb2.lake.cells.as[(String, String)].collect().sortBy(t => (t._1, t._2))
    assert(c1 === c2)
  }

  test("different seeds give different samplings but the same ground truth size") {
    val sb2 = SyntheticBenchmark.generate(spark, seed = 1)
    assert(sb2.homographs.size === 55)
  }

  test("code homographs live in the small code domains") {
    import spark.implicits._
    val cells = sb.lake.normalizedCells
    val codeAttrs = cells
      .filter(col("value").isin(sb.smallDomainHomographs.toSeq: _*))
      .select("attribute").distinct().as[String].collect().toSet
    // only code-typed columns may contain them
    assert(codeAttrs.forall(a => a.endsWith("country_code") || a.endsWith("state_code")), codeAttrs)
  }
}
