package repro.data

import org.scalatest.funsuite.AnyFunSuite

class VocabSpec extends AnyFunSuite {

  test("pool produces n distinct upper-case tokens") {
    val p = Vocab.pool("city", 100)
    assert(p.size === 100)
    assert(p.distinct.size === 100)
    assert(p.forall(t => t == t.toUpperCase))
    assert(p.forall(_.startsWith("CITY_")))
  }

  test("pools with different tags are disjoint") {
    assert(Vocab.pool("a", 50).toSet.intersect(Vocab.pool("b", 50).toSet).isEmpty)
  }

  test("plantHomographs places the same token in both pools") {
    val a = Vocab.pool("a", 30)
    val b = Vocab.pool("b", 40)
    val (a2, b2, toks) = Vocab.plantHomographs(a, b, 5, "hom", seed = 3)
    assert(toks.size === 5)
    toks.foreach { t =>
      assert(a2.count(_ == t) === 1)
      assert(b2.count(_ == t) === 1)
    }
    assert(a2.size === 30 && b2.size === 40)
    assert(a2.toSet.intersect(b2.toSet) === toks.toSet)
  }

  test("plantHomographs keeps the tokens planted earlier in the same pool") {
    val a = Vocab.pool("a", 12); val b = Vocab.pool("b", 12); val c = Vocab.pool("c", 12)
    for (seed <- 0L until 20L) {
      val (a2, _, first) = Vocab.plantHomographs(a, b, 6, "h", seed)
      // a has 6 free slots left: the second plant must take exactly those
      val (a3, _, second) = Vocab.plantHomographs(a2, c, 6, "k", seed + 100)
      assert((first ++ second).forall(a3.contains), s"seed $seed")
    }
    intercept[IllegalArgumentException] {
      val (a2, _, _) = Vocab.plantHomographs(a, b, 6, "h", 1)
      Vocab.plantHomographs(a2, c, 7, "k", 2)
    }
  }

  test("plantHomographs is deterministic in the seed") {
    val a = Vocab.pool("a", 30); val b = Vocab.pool("b", 30)
    val r1 = Vocab.plantHomographs(a, b, 4, "h", 9)
    val r2 = Vocab.plantHomographs(a, b, 4, "h", 9)
    assert(r1 === r2)
  }

  test("plantHomographs rejects oversized requests") {
    intercept[IllegalArgumentException] {
      Vocab.plantHomographs(Vocab.pool("a", 3), Vocab.pool("b", 10), 5, "h", 1)
    }
  }
}
