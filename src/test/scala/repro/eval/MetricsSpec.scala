package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import Metrics._

class MetricsSpec extends AnyFunSuite {

  private val truth = Set("a", "b", "c", "d")

  test("precision and recall at k") {
    val ranking = Seq("a", "x", "b", "y", "c", "d")
    val p2 = atK(ranking, truth, 2)
    assert(p2.precision === 0.5)
    assert(p2.recall === 0.25)
    val p6 = atK(ranking, truth, 6)
    assert(p6.precision === 4.0 / 6)
    assert(p6.recall === 1.0)
  }

  test("at k = |truth|, precision equals recall") {
    val ranking = Seq("a", "x", "b", "y", "c", "d")
    val p = atTruthSize(ranking, truth)
    assert(p.precision === p.recall)
    assert(p.precision === 0.5) // a, b in top-4
    assert(math.abs(p.f1 - 0.5) < 1e-12)
  }

  test("perfect ranking gives P=R=F1=1 at truth size") {
    val p = atTruthSize(Seq("d", "c", "b", "a", "x"), truth)
    assert(p.precision === 1.0 && p.recall === 1.0 && p.f1 === 1.0)
  }

  test("k beyond ranking length counts only ranked items") {
    val p = atK(Seq("a"), truth, 10)
    assert(p.precision === 0.1)
    assert(p.recall === 0.25)
  }

  test("curve is monotone in recall and has one entry per prefix") {
    val ranking = Seq("a", "x", "b", "c", "y", "d")
    val c = curve(ranking, truth)
    assert(c.size === ranking.size)
    assert(c.map(_._2.recall) === Seq(0.25, 0.25, 0.5, 0.75, 0.75, 1.0))
    assert(c.map(_._1) === (1 to 6))
  }

  test("bestF1 finds the optimal cut") {
    val ranking = Seq("a", "b", "c", "x", "d")
    val (k, p) = bestF1(ranking, truth)
    // F1 at k=3: P=1, R=.75 -> .857; at k=5: P=.8, R=1 -> .889
    assert(k === 5)
    assert(math.abs(p.f1 - 8.0 / 9.0) < 1e-12)
  }

  test("empty truth and zero k are handled") {
    assert(atK(Seq("a"), Set.empty, 1).recall === 0.0)
    assert(atK(Seq("a"), truth, 0).precision === 0.0)
    assert(atK(Seq.empty, truth, 0).f1 === 0.0)
  }

  test("a flagged set scores as a top-k cut of its own size") {
    val flagged = Set("a", "b", "x")
    assert(ofSet(flagged, truth) === atK(flagged.toSeq, truth, flagged.size))
    val p = ofSet(flagged, truth)
    assert(p.precision === 2.0 / 3 && p.recall === 0.5)
    assert(math.abs(p.f1 - 4.0 / 7) < 1e-12)
    assert(ofSet(Set.empty, truth) === Prf(0.0, 0.0, 0.0))
    assert(ofSet(Set("x"), Set.empty) === Prf(0.0, 0.0, 0.0))
  }

  for (k <- 1 to 6)
    test(s"curve entry at k=$k agrees with atK") {
      val ranking = Seq("a", "x", "b", "c", "y", "d")
      val c = curve(ranking, truth)
      assert(c(k - 1)._2 === atK(ranking, truth, k))
    }

  test("f1 is harmonic mean of precision and recall") {
    val p = atK(Seq("a", "x", "y", "z"), truth, 4)
    val expected = 2 * p.precision * p.recall / (p.precision + p.recall)
    assert(math.abs(p.f1 - expected) < 1e-12)
  }
}
