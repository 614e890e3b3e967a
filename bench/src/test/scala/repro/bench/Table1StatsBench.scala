package repro.bench

import repro.SparkSpec
import repro.data.{SyntheticBenchmark, TusGen}
import repro.eval.Experiments

/** Paper Table 1: dataset statistics for SB, TUS-I, TUS and NYC-EDU.
  *
  * Our datasets are scaled-down synthetic analogues (DESIGN.md §4), so the
  * absolute counts are smaller; the bench prints paper vs measured and
  * asserts the structural invariants (13 tables / 55 homographs / 2
  * meanings for SB; no homographs in TUS-I; abundant skewed homographs in
  * TUS).
  */
class Table1StatsBench extends SparkSpec {

  test("Table 1: dataset statistics (paper vs measured)") {
    println("=== Table 1: datasets (paper numbers in parentheses) ===")
    println("name    | #Tables       | #Attr        | #Val            | #Hom         | Card(H)            | #M")

    // --- SB ---
    val sb = SyntheticBenchmark.generate(spark, seed = 0)
    val sbStats = Experiments.datasetStats("SB", sb.lake,
      sb.homographs, sb.homographs.iterator.map(_ -> 2).toMap)
    println(f"SB      | ${sbStats.numTables}%3d (13)      | ${sbStats.numAttrs}%4d (39)    | ${sbStats.numValues}%7d (17,633) | ${sbStats.numHomographs}%4d (55)    | ${sbStats.cardMin}%4d-${sbStats.cardMax}%5d (151-1,966) | ${sbStats.meaningsMin}-${sbStats.meaningsMax} (2)")
    assert(sbStats.numTables === 13)
    assert(sbStats.numHomographs === 55)
    assert(sbStats.meaningsMin === 2 && sbStats.meaningsMax === 2)
    assert(sbStats.cardMin >= 10 && sbStats.cardMax <= 3000)

    // --- TUS-I (no injections: zero homographs) ---
    val tusI = TusGen.tusI(seed = 0)
    val tusILake = tusI.toLake(spark)
    val tusIStats = Experiments.datasetStats("TUS-I", tusILake, Set.empty, Map.empty)
    println(f"TUS-I   | ${tusIStats.numTables}%3d (1,253)  | ${tusIStats.numAttrs}%4d (5,020) | ${tusIStats.numValues}%7d (163,860) | ${tusIStats.numHomographs}%4d (N/A)  | N/A               | N/A")
    assert(tusIStats.numHomographs === 0)
    assert(tusIStats.numAttrs === 600)

    // --- TUS (natural homographs) ---
    val tus = TusGen.generate(TusGen.tusParams(seed = 0))
    val tusLake = tus.toLake(spark)
    val meanings = tus.homographs.iterator.map(h => h -> tus.valueDomains(h).size).toMap
    val tusStats = Experiments.datasetStats("TUS", tusLake, tus.homographs, meanings)
    val homFrac = tusStats.numHomographs.toDouble / tusStats.numValues
    println(f"TUS     | ${tusStats.numTables}%3d (1,327)  | ${tusStats.numAttrs}%4d (9,859) | ${tusStats.numValues}%7d (190,399) | ${tusStats.numHomographs}%4d (26,035)| ${tusStats.cardMin}%4d-${tusStats.cardMax}%5d (3-22,703) | ${tusStats.meaningsMin}-${tusStats.meaningsMax} (2-100)")
    println(f"TUS homograph fraction: $homFrac%.3f (paper: 0.137)")
    assert(tusStats.numHomographs > 1000)
    assert(homFrac > 0.06 && homFrac < 0.25, s"homograph fraction $homFrac")
    assert(tusStats.meaningsMin === 2)
    assert(tusStats.meaningsMax >= 8, s"meanings max ${tusStats.meaningsMax}")
    assert(tusStats.cardMax > 10 * math.max(1, tusStats.cardMin), "Card(H) should be highly skewed")

    // --- NYC-EDU analogue (no ground truth; counts only) ---
    val nyc = TusGen.generate(ScalabilityBench.nycParams(seed = 0))
    val nycLake = nyc.toLake(spark)
    val nycStats = Experiments.datasetStats("NYC-EDU", nycLake, Set.empty, Map.empty)
    println(f"NYC-EDU | ${nycStats.numTables}%3d (201)    | ${nycStats.numAttrs}%4d (3,496) | ${nycStats.numValues}%7d (1,469,547) | N/A | N/A | N/A")
    assert(nycStats.numValues > 2 * tusStats.numValues,
      "NYC analogue should be much larger than the TUS analogue")
  }
}
