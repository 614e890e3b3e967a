package repro.data

import repro.{Oracle, SparkSpec}
import repro.core.{LakeGraph, Lcc}
import org.apache.spark.sql.functions._

class TusGenSpec extends SparkSpec {

  // Small params so each test runs in seconds.
  private val small = TusGen.Params(
    nDomains = 10, nColumns = 60, maxVocab = 300, minCard = 3, seed = 11)

  private lazy val tusISpec = TusGen.tusI(seed = 11, base = small)
  private lazy val tusSpec =
    TusGen.generate(small.copy(nShared = 250, seed = 12))

  test("TUS-I has zero natural homographs (disjoint domain vocabularies)") {
    assert(tusISpec.homographs.isEmpty)
    // every value is private to exactly one domain
    assert(tusISpec.valueDomains.valuesIterator.forall(_.size == 1))
  }

  test("TUS mode produces natural homographs via the shared pool") {
    val homs = tusSpec.homographs
    assert(homs.nonEmpty)
    assert(homs.forall(_.startsWith("SHARED_")))
    // Definition 2: each homograph appears in columns of >= 2 domains
    homs.foreach(h => assert(tusSpec.valueDomains(h).size >= 2))
    // and non-homograph shared values appear in at most one domain
    tusSpec.valueDomains.foreach { case (v, ds) =>
      if (!homs.contains(v)) assert(ds.size === 1)
    }
  }

  test("driver-side ground truth matches a DataFrame computation of Definition 2") {
    import spark.implicits._
    val lake = tusSpec.toLake(spark)
    val colDomain = tusSpec.columns.map(c => (c.attribute, c.domain)).toDF("attribute", "domain")
    val dfHoms = lake.normalizedCells
      .distinct()
      .join(colDomain, "attribute")
      .groupBy("value")
      .agg(countDistinct("domain").as("nd"))
      .filter(col("nd") >= 2)
      .select("value")
      .as[String].collect().toSet
    assert(dfHoms === tusSpec.homographs)
  }

  test("column cardinalities respect bounds and are skewed") {
    val cards = tusISpec.columns.map(_.cardinality)
    assert(cards.forall(_ >= small.minCard))
    assert(cards.max <= small.maxVocab)
    assert(cards.distinct.size > 5) // non-degenerate spread
  }

  test("every domain owns at least one column") {
    assert(tusISpec.columns.map(_.domain).distinct.size === small.nDomains)
  }

  test("generation is deterministic in the seed") {
    val again = TusGen.tusI(seed = 11, base = small)
    assert(again.columns.map(_.attribute) === tusISpec.columns.map(_.attribute))
    assert(again.columns.map(_.values.toSeq) === tusISpec.columns.map(_.values.toSeq))
  }

  test("toLake emits each distinct cell twice so nothing is pruned") {
    val lake = tusISpec.toLake(spark)
    val g = LakeGraph.build(lake) // minOccurrences = 2
    assert(g.numValues === tusISpec.vocabulary.size)
    val cellCount = lake.cells.count()
    assert(cellCount === 2L * tusISpec.columns.map(_.cardinality).sum)
  }

  test("lake cell counts per attribute agree with DuckDB") {
    val lake = TusGen.tusI(seed = 3, base = small.copy(nColumns = 12)).toLake(spark)
    val counts = lake.cells.groupBy("attribute").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      counts,
      "SELECT attribute, count(*) AS cnt FROM cells GROUP BY attribute",
      "cells" -> lake.cells)
  }

  test("inject creates the requested homographs with the requested meanings") {
    val inj = TusGen.inject(tusISpec, count = 5, meanings = 3, minAttrCardinality = 1, seed = 4)
    assert(inj.injected.size === 5)
    inj.injected.foreach { name =>
      val ds = inj.spec.valueDomains(name)
      assert(ds.size === 3, s"$name in domains $ds")
      assert(inj.replaced(name).size === 3)
    }
    // the injected names are exactly the new lake's homographs
    assert(inj.spec.homographs === inj.injected.toSet)
  }

  test("inject removes the replaced originals from the lake") {
    val inj = TusGen.inject(tusISpec, count = 4, meanings = 2, minAttrCardinality = 1, seed = 5)
    val vocab = inj.spec.vocabulary
    inj.replaced.values.flatten.foreach(orig => assert(!vocab.contains(orig)))
  }

  test("inject honors the column-cardinality threshold") {
    val threshold = 150
    val inj = TusGen.inject(tusISpec, count = 3, meanings = 2, minAttrCardinality = threshold, seed = 6)
    // every replaced original must occur in some column with card >= threshold
    inj.replaced.values.flatten.foreach { orig =>
      val cols = tusISpec.columns.filter(_.values.contains(orig))
      assert(cols.exists(_.cardinality >= threshold), s"$orig only in ${cols.map(_.cardinality)}")
    }
  }

  test("inject replaced originals are distinct across homographs") {
    val inj = TusGen.inject(tusISpec, count = 8, meanings = 2, minAttrCardinality = 1, seed = 7)
    val all = inj.replaced.values.flatten.toSeq
    assert(all.distinct.size === all.size)
  }

  test("inject fails cleanly when not enough domains meet the threshold") {
    intercept[IllegalArgumentException] {
      TusGen.inject(tusISpec, count = 1, meanings = 2, minAttrCardinality = 10000, seed = 8)
    }
  }

  test("cardinalities matches a brute-force |N(v)| computation") {
    val spec = tusISpec
    val g = LakeGraph.build(spec.toLake(spark), minOccurrences = 1)
    val got = Lcc.valueNeighbourCounts(g.csr)
    val sample = spec.vocabulary.take(30)
    sample.foreach { v =>
      val union = spec.columns.iterator
        .filter(_.values.contains(v))
        .flatMap(_.values)
        .toSet
      assert(got(g.valueNames.indexOf(v)) === union.size - 1, s"value $v")
    }
  }

  test("tusParams natural homograph rate is in the TUS ballpark (~14%)") {
    // overlapMax scaled down with nShared so one batch can't absorb
    // most of the shared tokens at this miniature scale
    val spec = TusGen.generate(TusGen.tusParams(seed = 1).copy(
      nDomains = 20, nColumns = 150, maxVocab = 800, nShared = 800, overlapMax = 100))
    // at this miniature scale coverage is lower than the full-scale 0.110
    // (asserted in Table1StatsBench); the rate should still be substantial
    val rate = spec.homographs.size.toDouble / spec.vocabulary.size
    assert(rate > 0.05 && rate < 0.25, s"rate=$rate")
  }

  test("shared tokens have skewed meanings counts (mostly 2, tail above 2)") {
    val spec = TusGen.generate(small.copy(nShared = 400, sharedMeaningsMax = 8, seed = 13))
    val meanings = spec.homographs.toSeq.map(h => spec.valueDomains(h).size)
    assert(meanings.nonEmpty)
    assert(meanings.min >= 2)
    assert(meanings.max <= 8)
    val twos = meanings.count(_ == 2).toDouble / meanings.size
    assert(twos > 0.4, s"fraction with 2 meanings = $twos")
  }
}
