package repro.core

import scala.collection.immutable.ArraySeq

/** Value nodes grouped by their exact attribute set.
  *
  * Two values with the same attribute set have the same neighbourhood and
  * are never adjacent, so they are structurally equivalent: a graph
  * automorphism swaps them, and every centrality measure gives them the
  * same score. [[Lcc]] scores one class at a time and [[Betweenness]] runs
  * one BFS per class.
  *
  * Class ids follow first appearance by value id, so class 0 holds value 0
  * and each class's representative is its smallest value id.
  */
final class ValueClasses private (
    classIds: Array[Int],
    val representative: Array[Int],
    val size: Array[Int],
    val attrs: Array[Array[Int]]) {

  def numClasses: Int = size.length

  /** The class of value `v`. */
  def classOf(v: Int): Int = classIds(v)
}

object ValueClasses {

  /** Group `csr`'s value nodes in one pass. Attribute lists are sorted, as
    * CSR adjacency lists are.
    */
  def of(csr: Csr): ValueClasses = {
    val nv = csr.numValues
    val classIds = new Array[Int](nv)
    val ids = scala.collection.mutable.HashMap.empty[ArraySeq[Int], Int]
    val rep = scala.collection.mutable.ArrayBuffer.empty[Int]
    val size = scala.collection.mutable.ArrayBuffer.empty[Int]
    val attrs = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    var v = 0
    while (v < nv) {
      val set = csr.neighborsOf(v)
      val c = ids.getOrElseUpdate(ArraySeq.unsafeWrapArray(set), {
        rep += v; size += 0; attrs += set
        rep.size - 1
      })
      classIds(v) = c
      size(c) += 1
      v += 1
    }
    new ValueClasses(classIds, rep.toArray, size.toArray, attrs.toArray)
  }
}
