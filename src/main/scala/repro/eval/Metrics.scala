package repro.eval

/** Ranking-quality metrics used throughout the paper's evaluation:
  * precision / recall / F1 of the top-k homograph candidates against a
  * ground-truth homograph set.
  */
object Metrics {

  /** Precision, recall and F1 of one top-k cut. */
  final case class Prf(precision: Double, recall: Double, f1: Double) {
    override def toString: String = f"P=$precision%.3f R=$recall%.3f F1=$f1%.3f"
  }

  /** Evaluate a ranking's top-k slice against the ground truth set. */
  def atK(ranking: Seq[String], truth: Set[String], k: Int): Prf = {
    require(k >= 0, "k must be non-negative")
    val hits = ranking.take(k).count(truth.contains)
    prf(hits, k, truth.size)
  }

  /** Precision, recall and F1 of a flagged set (not a ranking), such as
    * D4's homographs; an empty set has precision 0.
    */
  def ofSet(flagged: Set[String], truth: Set[String]): Prf =
    prf(flagged.count(truth.contains), flagged.size, truth.size)

  /** Precision@|truth| — the paper's default operating point ("k is set to
    * the true number of homographs"), where P = R = F1.
    */
  def atTruthSize(ranking: Seq[String], truth: Set[String]): Prf =
    atK(ranking, truth, truth.size)

  /** Full top-k sweep: (k, Prf) for every prefix of the ranking.
    * Used for the TUS top-k curve (paper Fig. 7).
    */
  def curve(ranking: Seq[String], truth: Set[String]): Seq[(Int, Prf)] = {
    var hits = 0
    ranking.zipWithIndex.map { case (v, i) =>
      if (truth.contains(v)) hits += 1
      (i + 1, prf(hits, i + 1, truth.size))
    }
  }

  /** The k maximising F1 over the full sweep, with its Prf. */
  def bestF1(ranking: Seq[String], truth: Set[String]): (Int, Prf) =
    curve(ranking, truth).maxBy { case (_, p) => p.f1 }

  private def prf(hits: Int, k: Int, truthSize: Int): Prf = {
    val p = if (k == 0) 0.0 else hits.toDouble / k
    val r = if (truthSize == 0) 0.0 else hits.toDouble / truthSize
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    Prf(p, r, f1)
  }
}
