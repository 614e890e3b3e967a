package repro.core

import repro.SparkSpec
import GraphFixtures._

class ValueClassesSpec extends SparkSpec {

  /** Every invariant of the grouping and its quotient, checked against the
    * value graph `csr`.
    */
  private def checkClasses(csr: Csr): Unit = {
    val classes = ValueClasses.of(csr)
    val q = classes.quotient
    val nc = classes.numClasses
    assert(q.numValues === nc)
    assert(q.numAttrs === csr.numAttrs)
    assert(classes.size.sum === csr.numValues)
    for (v <- 0 until csr.numValues) {
      val c = classes.classOf(v)
      assert(csr.neighborsOf(v).toSeq === q.neighborsOf(c).toSeq.map(classes.graphId), s"value $v, class $c")
    }
    val rows = (0 until nc).map(c => q.neighborsOf(c).toSeq)
    assert(rows.distinct.size === nc, "two classes share an attribute set")
    for (c <- 0 until nc) {
      val members = (0 until csr.numValues).filter(classes.classOf(_) == c)
      assert(members.size === classes.size(c))
      assert(classes.representative(c) === members.min)
    }
  }

  private val inputs: Seq[(String, Csr)] = Seq(
    "duplicate attribute sets" -> pooledCsr(30, 6, numSets = 4, leafFrac = 0.0, isolated = 0, seed = 1),
    "duplicate sets and leaves" -> pooledCsr(30, 6, numSets = 6, leafFrac = 0.4, isolated = 0, seed = 2),
    "isolated values" -> pooledCsr(25, 5, numSets = 3, leafFrac = 0.3, isolated = 4, seed = 4),
    "no edges" -> Csr.fromEdges(3, 2, Iterator.empty),
    "random graph" -> randomCsr(numValues = 12, numAttrs = 4, seed = 3))

  for ((name, csr) <- inputs)
    test(s"the quotient reproduces every value's attribute set ($name)") {
      checkClasses(csr)
    }

  test("the quotient reproduces every value's attribute set (Figure 1 lake)") {
    val csr = LakeGraph.build(ExampleLakeSpec.figure1Lake(spark), minOccurrences = 1).csr
    val classes = ValueClasses.of(csr)
    assert(classes.numClasses < csr.numValues)
    checkClasses(csr)
  }
}
