package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{Betweenness, Csr, DomainNet, Lcc}
import repro.d4.D4
import repro.data.SyntheticBenchmark
import repro.lake.DataLake

/** What the program receives: the generated lake, plus the ground truth the
  * benchmark keeps to itself for the quality figures.
  */
final case class Input(lake: DataLake, truth: Option[Set[String]])

/** One ranking of a workload: the measure handed to `DomainNet.score`, the
  * cut passed to `Result.topK`, whether low scores rank first, and the
  * kernel `DomainNet.score` calls for that measure, called directly (traced
  * runs only) so its time can be told apart from the ranking's. `kernel`
  * has to follow whatever `DomainNet.score` calls, or `bc.*`/`lcc.*` time
  * the wrong code.
  */
final case class Ranking(
    name: String,
    measure: DomainNet.Measure,
    k: Int,
    ascending: Boolean,
    sources: Int,
    kernel: (SparkSession, Csr) => Array[Double])

sealed abstract class Workload(val name: String) {
  def generate(spark: SparkSession, seed: Long): Input
  def rankings(csr: Csr): Seq[Ranking]
  /** D4 settings, for the one workload that runs the baseline. */
  def d4: Option[D4.Config] = None
  /** BC's precision at k must exceed this, where there is ground truth. */
  def bcFloor: Option[Double] = None
}

object Workload {

  private def lcc(k: Int) = Ranking("lcc", DomainNet.LCC, k, ascending = true, 0, (s, c) => Lcc.compute(s, c))

  private def exactBc(csr: Csr, k: Int) =
    Ranking("bc", DomainNet.ExactBC, k, ascending = false, csr.numNodes,
      (s, c) => Betweenness.exact(s, c, normalized = true))

  /** SB analogue: tiny lake, so fixed per-stage Spark cost dominates. */
  object SbDetectors extends Workload("sb-detectors") {
    def generate(spark: SparkSession, seed: Long): Input = {
      val sb = SyntheticBenchmark.generate(spark, seed)
      Input(sb.lake, Some(sb.homographs))
    }
    // k = |H| = 55, the paper's operating point on SB
    def rankings(csr: Csr): Seq[Ranking] =
      Seq(exactBc(csr, SyntheticBenchmark.NumHomographs), lcc(SyntheticBenchmark.NumHomographs))
    // the setting Experiments.runSB uses
    override def d4: Option[D4.Config] = Some(D4.Config(tau = 0.35, dominance = 0.35))
    override def bcFloor: Option[Double] = Some(0.5) // as SBCompareBench asserts
  }

  /** Random column subsets: no structure for class-based kernels to use. */
  object RandExact extends Workload("rand-exact") {
    val params = RandLake.Params(values = 6000, columns = 500)
    def generate(spark: SparkSession, seed: Long): Input =
      Input(RandLake.lake(spark, params, seed), None)
    def rankings(csr: Csr): Seq[Ranking] = Seq(exactBc(csr, 200), lcc(200))
  }

  val all: Seq[Workload] = Seq(SbDetectors, RandExact)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
