package repro.bench

import repro.SparkSpec
import repro.d4.D4
import repro.data.TusGen

/** Paper §5.5 (Figure 10): injecting homographs into a clean lake (TUS-I)
  * degrades the D4 domain-discovery baseline — with the original D4 the
  * number of discovered domains and the number of columns/values with
  * multiple domains grows with the number of injected homographs.
  *
  * Our simplified D4 clusters columns by similarity, so its *domain count*
  * is robust to a handful of injected values; the degradation shows up in
  * the value-to-domain assignment: the number of values assigned to
  * multiple domains (D4's ambiguous values) grows with the injections.
  * EXPERIMENTS.md discusses this divergence from the original mechanism.
  */
class D4ImpactBench extends SparkSpec {

  test("injected homographs degrade D4 domain assignments") {
    val base = TusGen.Params(nDomains = 30, nColumns = 240, maxVocab = 1200, seed = 9)
    val spec = TusGen.tusI(seed = 9, base = base)
    val counts = Seq(0, 50, 100, 200)
    println("=== D4 on TUS-I with injected homographs ===")
    println("#injected | domains | multi-domain values | avg domains/value")
    val results = counts.map { n =>
      val lakeSpec =
        if (n == 0) spec
        else TusGen.inject(spec, count = n, meanings = 2, minAttrCardinality = 1, seed = 77 + n).spec
      val r = D4.run(spark, lakeSpec.toLake(spark), D4.Config(tau = 0.3, dominance = 0.0))
      println(f"  $n%5d   | ${r.numDomains}%5d   | ${r.homographs.size}%8d            | ${r.avgDomainsPerValue}%.4f")
      n -> r
    }.toMap

    // Baseline ambiguity is small but nonzero: domain fragments (the
    // union-group slicing effect) already split some columns, mirroring the
    // paper's D4 finding 134 domains for TUS-I's 68 true union groups.
    val base0 = results(0).homographs.size
    assert(results(50).homographs.size > base0,
      "injections should increase ambiguous assignments")
    assert(results(100).homographs.size > results(50).homographs.size)
    assert(results(200).homographs.size > results(100).homographs.size)
    assert(results(200).avgDomainsPerValue > results(0).avgDomainsPerValue)
    // discovered domains track (and, via fragments, exceed) the 30 true ones
    assert(results(0).numDomains >= 25 && results(0).numDomains <= 60)
  }
}
