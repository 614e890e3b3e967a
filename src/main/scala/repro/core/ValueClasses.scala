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
  * The classes form the quotient graph `quotient`: class nodes in
  * `[0, numClasses)`, then one node per attribute in the graph's attribute
  * order, with an edge C–a for every attribute a of class C. Class node C
  * stands for `size(C)` value nodes; [[graphId]] maps a quotient attribute
  * node back to the graph's id.
  *
  * Class ids follow first appearance by value id, so class 0 holds value 0
  * and each class's representative is its smallest value id.
  */
final class ValueClasses private (
    classIds: Array[Int],
    val representative: Array[Int],
    val size: Array[Int],
    val quotient: Csr) {

  def numClasses: Int = size.length

  /** The class of value `v`. */
  def classOf(v: Int): Int = classIds(v)

  /** The graph id of quotient attribute node `node`. */
  def graphId(node: Int): Int = node - numClasses + classIds.length
}

object ValueClasses {

  /** Group `csr`'s value nodes in one pass, then build the quotient from
    * each representative's attribute list.
    */
  def of(csr: Csr): ValueClasses = {
    val nv = csr.numValues
    val classIds = new Array[Int](nv)
    val ids = scala.collection.mutable.HashMap.empty[ArraySeq[Int], Int]
    val rep = scala.collection.mutable.ArrayBuffer.empty[Int]
    val size = scala.collection.mutable.ArrayBuffer.empty[Int]
    var v = 0
    while (v < nv) {
      val c = ids.getOrElseUpdate(ArraySeq.unsafeWrapArray(csr.neighborsOf(v)), {
        rep += v; size += 0
        rep.size - 1
      })
      classIds(v) = c
      size(c) += 1
      v += 1
    }
    val nc = rep.size
    val edges = Iterator.range(0, nc).flatMap(c => csr.neighborsOf(rep(c)).iterator.map(a => (c, a - nv + nc)))
    new ValueClasses(classIds, rep.toArray, size.toArray, Csr.fromEdges(nc + csr.numAttrs, nc, edges))
  }
}
